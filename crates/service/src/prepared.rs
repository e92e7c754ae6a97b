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
/// full queue.
pub(crate) const MAX_PREPARED: usize = 4096;

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
        let store = self.store();
        let (mut timer, mut stages) = (StageTimer::start(), StageBreakdown::default());
        let (env, query) = self.compile(zql_src, &store, &mut timer, &mut stages)?;
        let id = query.fp.hash;
        let full = ServiceError::Overloaded {
            reason: ShedReason::QueueFull,
        };
        let registry = self.inner.prepared.load();
        if let Some(existing) = registry.get(&id) {
            return Ok((Arc::clone(existing), false));
        }
        if registry.len() >= MAX_PREPARED {
            return Err(full);
        }
        let stmt = Arc::new(PreparedQuery {
            id,
            zql: zql_src.to_string(),
            env,
            query,
        });
        let entry = self.inner.prepared.update(|map| {
            // Re-checked under the writer lock: two racing prepares of
            // one query agree on a statement, and of two new ones at the
            // bound one is refused.
            if let Some(existing) = map.get(&id) {
                return (map.clone(), Ok((Arc::clone(existing), false)));
            }
            if map.len() >= MAX_PREPARED {
                return (map.clone(), Err(full));
            }
            let mut next = map.clone();
            next.insert(id, Arc::clone(&stmt));
            (next, Ok((stmt, true)))
        })?;
        if entry.1 {
            self.inner.metrics.prepares.inc();
        }
        Ok(entry)
    }

    /// Looks up a registered prepared statement by id.
    pub fn prepared(&self, id: u64) -> Option<Arc<PreparedQuery>> {
        self.inner.prepared.load().get(&id).cloned()
    }

    /// Every registered prepared statement, in id order.
    pub fn prepared_statements(&self) -> Vec<Arc<PreparedQuery>> {
        self.inner.prepared.load().values().cloned().collect()
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
        self.inner.metrics.prepared_executes.inc();
        self.submit_guarded(|| {
            let stmt = self
                .prepared(id)
                .ok_or(ServiceError::UnknownStatement { id })?;
            self.admitted(opts, None, |req| {
                self.submit_pipeline(req, Cow::Borrowed(&stmt.env), &stmt.query)
            })
        })
    }
}
