//! A submission's path: one exit ([`QueryService::submit_guarded`]),
//! admission, then compile → plan → run → close feedback.

use crate::error::panic_message;
use crate::{
    Compiled, QueryOutput, QueryService, ServiceError, ServiceState, ShedReason, StageBreakdown,
    SubmitOptions,
};
use oodb_algebra::{PhysicalOp, PhysicalPlan, QueryEnv, StatsOverlay};
use oodb_core::plancache::{CacheKey, CachedBody, CachedPlan};
use oodb_core::verify::{checks, walk_actual, Diagnostic};
use oodb_core::{BoundedOutcome, Observation, OpenOodb};
use oodb_exec::{ExecError, ExecStats, Executor, RootRow};
use oodb_fault::{CancelToken, FaultClass, RunLimits};
use oodb_storage::{MemoryGovernor, PressureLevel};
use oodb_telemetry::{OpTrace, StageTimer};
use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// What one admitted submission carries from stage to stage. `state` is
/// the ONE snapshot load that serves the whole submission: admission
/// policy, store and config all come from the same epoch, and no stage
/// re-reads shared state mid-flight.
pub(crate) struct Request<'a> {
    pub(crate) state: Arc<ServiceState>,
    opts: SubmitOptions,
    cancel: Option<&'a CancelToken>,
    deadline: Option<Instant>,
    /// Memory pressure is High: greedy plan, no cache traffic, halved
    /// grant.
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

/// The run stage's result.
struct Ran {
    rows: Vec<String>,
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

    /// A textual submission pays the front end per request and has no
    /// further use for the environment it compiled: a cache miss moves it
    /// into the entry.
    fn submit_text(
        &self,
        zql_src: &str,
        opts: SubmitOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<QueryOutput, ServiceError> {
        self.submit_guarded(|| {
            self.admitted(opts, cancel, |mut req| {
                let (env, query) =
                    self.compile(zql_src, &req.state.store, &mut req.timer, &mut req.stages)?;
                self.submit_pipeline(req, Cow::Owned(env), &query)
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
            .then(|| state.store.memory_governor().map(MemoryGovernor::pressure))
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

    /// Plan → run → close feedback, for a compiled query. `env` is owned
    /// when the submission compiled it and borrowed from the registry
    /// when a prepared statement did: a cache miss takes it either way.
    pub(crate) fn submit_pipeline(
        &self,
        mut req: Request<'_>,
        env: Cow<'_, QueryEnv>,
        query: &Compiled,
    ) -> Result<QueryOutput, ServiceError> {
        let planned = self.plan(&mut req, env, query)?;
        let CachedBody::Static { plan, cost } = &planned.entry.body;
        let mut ran = self.run(&mut req, &planned, plan)?;
        let drift = self.close_feedback(&req, &planned, plan, &ran);
        let stats = &ran.stats;
        let row_count = ran.rows.len();
        ran.rows.sort_unstable();
        Ok(QueryOutput {
            rows: ran.rows,
            row_count,
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

    /// Plan stage: build the cache key, probe, and on a miss search (or
    /// step down the greedy ladder) and insert.
    fn plan(
        &self,
        req: &mut Request<'_>,
        env: Cow<'_, QueryEnv>,
        query: &Compiled,
    ) -> Result<Planned, ServiceError> {
        let m = &self.inner.metrics;
        let (store, fp) = (&req.state.store, &query.fp);
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
            store.catalog().index_set_hash(),
            overlay_fp,
        );
        req.stages.fingerprint_ns = req.timer.lap_into(&m.stage_fingerprint);

        // A pressure-degraded submission bypasses the cache entirely: its
        // greedy plan is not worth caching, and a hit would be wasted on
        // a query about to run with half a grant anyway.
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
                let (body, degraded) = self.search(req, &env, query, overlay)?;
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
    /// optimizer deadline) step down to. Returns the plan and whether it
    /// is the degraded one.
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
        let lint = |diagnostics: &[Diagnostic]| {
            m.verify_violations.add(diagnostics.len() as u64);
            let interval = |d: &&Diagnostic| d.check == checks::CARD_INTERVAL;
            m.interval_violations
                .add(diagnostics.iter().filter(interval).count() as u64);
        };
        // The greedy plan is still estimator-annotated and verifier-
        // linted; it is just not optimal.
        let greedy = || {
            let (plan, cost, diagnostics) =
                oodb_core::greedy_fallback(env, self.inner.params, plan, result_vars)
                    .ok_or(ServiceError::NoPlan)?;
            lint(&diagnostics);
            Ok((CachedBody::Static { plan, cost }, true))
        };
        if req.pressure_degraded {
            m.pressure_degrades.inc();
            return greedy();
        }
        let mut optimizer = OpenOodb::new(env, self.inner.params, (*req.state.config).clone());
        if let Some(ov) = overlay {
            // Feedback-driven re-optimization: the search runs under
            // corrected selectivities layered over the epoch snapshot —
            // the catalog itself is never mutated.
            m.reopt.inc();
            optimizer = optimizer.with_overlay(ov);
        }
        match optimizer.optimize_within(plan, result_vars, query.order, req.deadline) {
            BoundedOutcome::Complete(out) => {
                m.transform_firings.add(out.stats.transform_firings);
                m.plans_costed.add(out.stats.plans_costed);
                lint(&out.diagnostics);
                let (plan, cost) = (out.plan, out.cost);
                Ok((CachedBody::Static { plan, cost }, false))
            }
            BoundedOutcome::DeadlineExpired => {
                m.fallback_plans.inc();
                greedy()
            }
            BoundedOutcome::Infeasible => Err(ServiceError::NoPlan),
        }
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
        let mut mem_budget = opts.mem_budget.or_else(|| {
            store
                .memory_governor()
                .map(|gov| (gov.capacity() / 4).max(1))
        });
        if req.pressure_degraded {
            mem_budget = mem_budget.map(|b| (b / 2).max(1));
        }
        // A suspect fingerprint with no recorded overrides yet gets one
        // traced probe execution: only the per-operator trace can
        // attribute root-level drift to individual predicates.
        let want_trace =
            opts.trace || (!planned.degraded && self.inner.feedback.wants_probe(planned.fp_hash));
        let mut render = row_renderer(entry);
        let mut retries = 0u32;
        let (rows, trace, stats) = loop {
            // Sized from the root's estimate — capped, an estimate is not a
            // bound — so a large answer does not regrow row by row. Made
            // per attempt: a retried fault starts an empty answer.
            let mut rows = Vec::with_capacity((plan.est.out_card as usize).min(4096));
            let mut ex = Executor::new(store, &entry.env);
            ex.set_limits(RunLimits {
                deadline,
                cancel: req.cancel.cloned(),
                row_budget: opts.row_budget,
                mem_budget,
            });
            match ex.try_run_rows(plan, want_trace, &mut |row| render(&mut rows, row)) {
                Ok(trace) => break (rows, trace, ex.stats()),
                Err(ExecError::Fault(f))
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
                Err(e) => return Err(ServiceError::from_exec(e, retries)),
            }
        };
        req.stages.execute_ns = req.timer.lap_into(&m.stage_execute);
        m.record_exec(&stats);
        Ok(Ran {
            rows,
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

/// The root's row consumer: each result row is written once, into the one
/// `String` the output keeps, from values still borrowed from the store.
/// Tuple results project only the query's *result* variables: different
/// plans bind different auxiliary variables (a materialized path object,
/// say), and those must not leak into the observable answer.
fn row_renderer(entry: &CachedPlan) -> impl FnMut(&mut Vec<String>, RootRow<'_>) + '_ {
    let (scopes, result_vars) = (&entry.env.scopes, entry.result_vars);
    // The result variables' (name, column) in scope order: the root's
    // layout is the same for every row, so it is resolved once.
    let mut named = None;
    move |rows, row| {
        // Rows of one query share a shape: each line starts at the length
        // of the one rendered before it instead of doubling up from empty.
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
