//! The front end — the one compile step text submissions and `prepare`
//! share — and the prepared-statement registry.

use crate::{
    Compiled, PreparedQuery, QueryOutput, QueryService, ServiceError, ShedReason, StageBreakdown,
    SubmitOptions,
};
use oodb_algebra::fingerprint::fingerprint;
use oodb_algebra::QueryEnv;
use oodb_storage::Store;
use oodb_telemetry::StageTimer;
use std::borrow::Cow;
use std::sync::Arc;

/// Most statements the registry holds. `POST /prepare` passes no
/// admission gate and nothing frees a statement, so without a bound
/// every distinct text would hold an environment and a plan for the life
/// of the process; past it a *new* statement is refused like any other
/// full queue (a refuse-new [`oodb_sync::BoundedMap`]).
pub const MAX_PREPARED: usize = 4096;

impl QueryService {
    /// Parse → simplify → fingerprint against `store`'s schema and
    /// catalog, lapping the first two stages. The fingerprint stage is
    /// closed by the caller that goes on to build a cache key.
    pub(crate) fn compile(
        &self,
        zql_src: &str,
        store: &Store,
        timer: &mut StageTimer,
        stages: &mut StageBreakdown,
    ) -> Result<(QueryEnv, Compiled), ServiceError> {
        let m = &self.inner.metrics;
        let ast = zql::parser::parse(zql_src).map_err(ServiceError::Zql)?;
        stages.parse_ns = timer.lap_into(&m.stage_parse);
        let q = zql::simplify(&ast, store.schema(), store.catalog()).map_err(ServiceError::Zql)?;
        stages.simplify_ns = timer.lap_into(&m.stage_simplify);
        let fp = fingerprint(&q.env, &q.plan, q.result_vars, q.order.as_ref());
        let query = Compiled {
            fp,
            plan: q.plan,
            result_vars: q.result_vars,
            order: q.order,
        };
        Ok((q.env, query))
    }

    /// Registers a prepared statement: compiles `zql_src` and stores the
    /// result under its canonical fingerprint hash. Returns the statement
    /// and whether this call created it (`false` = an equivalent statement
    /// — possibly a textual variant — was already registered; both callers
    /// share it). A new statement past `MAX_PREPARED` (4,096) is refused with
    /// [`ServiceError::Overloaded`]: a statement stays registered for the
    /// life of the service. Nothing is optimized or executed yet: the first
    /// [`QueryService::submit_prepared_with`] fills the plan cache, and
    /// every execution after that hits it by id.
    pub fn prepare(&self, zql_src: &str) -> Result<(Arc<PreparedQuery>, bool), ServiceError> {
        let result = self.register(zql_src);
        if let Err(e) = &result {
            // Not a submission, so not behind the submission exit.
            self.inner.metrics.count_error(e);
        }
        result
    }

    fn register(&self, zql_src: &str) -> Result<(Arc<PreparedQuery>, bool), ServiceError> {
        let state = self.inner.state.load();
        let (mut timer, mut stages) = (StageTimer::start(), StageBreakdown::default());
        let (env, query) = self.compile(zql_src, &state.store, &mut timer, &mut stages)?;
        let id = query.fp.hash;
        let make = || {
            Arc::new(PreparedQuery {
                id,
                zql: zql_src.to_string(),
                env,
                query,
                stamp: state.stamp(),
            })
        };
        let entry = self
            .inner
            .prepared
            .get_or_insert_with(id, make, |stmt, created| (Arc::clone(stmt), created));
        let entry = entry.ok_or(ServiceError::Overloaded {
            reason: ShedReason::QueueFull,
        })?;
        if entry.1 {
            self.inner.metrics.prepares.inc();
        }
        Ok(entry)
    }

    /// Looks up a registered prepared statement by id.
    pub fn prepared(&self, id: u64) -> Option<Arc<PreparedQuery>> {
        self.inner.prepared.get(&id, |stmt| Some(Arc::clone(stmt)))
    }

    /// Every registered prepared statement, in id order.
    pub fn prepared_statements(&self) -> Vec<Arc<PreparedQuery>> {
        let mut all = Vec::new();
        self.inner
            .prepared
            .for_each(|_, stmt| all.push(Arc::clone(stmt)));
        all.sort_by_key(|stmt| stmt.id);
        all
    }

    /// Executes a prepared statement by id: no parse, no simplify, no
    /// fingerprint — straight to the plan-cache probe. A miss searches the
    /// registered query if the request's catalog is the one it was
    /// prepared under, and recompiles its text against the request's
    /// store otherwise: a statement prepared before a statistics change
    /// or an index drop must not plan from the old catalog. Equivalent to
    /// [`QueryService::submit_with`] for the statement's query otherwise
    /// (same admission control, same error surface).
    pub fn submit_prepared_with(
        &self,
        id: u64,
        opts: SubmitOptions,
    ) -> Result<QueryOutput, ServiceError> {
        self.inner.metrics.prepared_executes.inc();
        self.submit_guarded(|| {
            let stmt = self
                .prepared(id)
                .ok_or(ServiceError::UnknownStatement { id })?;
            self.admitted(opts, None, |req| {
                self.submit_pipeline(req, &stmt.query.fp, |req| {
                    if req.state.stamp() == stmt.stamp {
                        return Ok((Cow::Borrowed(&stmt.env), Cow::Borrowed(&stmt.query)));
                    }
                    let (env, query) =
                        self.compile(&stmt.zql, &req.state.store, &mut req.timer, &mut req.stages)?;
                    Ok((Cow::Owned(env), Cow::Owned(query)))
                })
            })
        })
    }
}
