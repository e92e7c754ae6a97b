//! Per-tenant QoS: one [`Gate`] per namespace at the server's front
//! door. The service's own gate guards the process; a tenant's guards its
//! slice of it, so one noisy tenant saturating its inflight cap or
//! tripping its breaker sheds **only its own** traffic — other tenants'
//! requests never queue behind the refusals.
//!
//! The policy is the gate's ([`oodb_service::admission`]): inflight-cap
//! shed (`429`, [`ShedReason::QueueFull`]) and a consecutive-resource-
//! failure breaker with cooldown and a half-open probe (`503`,
//! [`ShedReason::CircuitOpen`], `Retry-After` = remaining cooldown).
//! Pressure-degrade stays global — memory pressure is a process
//! property, not a tenant one.

use oodb_service::{AdmissionConfig, Gate, GateMetrics, Permit, Shed, ShedReason};
use oodb_telemetry::metrics::{Counter, MetricsRegistry};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// The name requests without an explicit tenant land under.
pub const DEFAULT_TENANT: &str = "default";

/// One tenant's gate + counters.
pub struct TenantState {
    /// Tenant namespace.
    pub name: String,
    admission: AdmissionConfig,
    gate: Gate,
    admitted: Counter,
    shed_queue_full: Counter,
    shed_circuit_open: Counter,
    resource_failures: Counter,
}

impl TenantState {
    fn new(name: &str, admission: AdmissionConfig, reg: &MetricsRegistry) -> Self {
        let t = [("tenant", name)];
        let shed = |reason| {
            reg.counter(
                "oodb_server_tenant_shed_total",
                &[("tenant", name), ("reason", reason)],
            )
        };
        let resource_failures = reg.counter("oodb_server_tenant_resource_failures_total", &t);
        TenantState {
            name: name.to_string(),
            admission,
            gate: Gate::new(GateMetrics {
                inflight: reg.gauge("oodb_server_tenant_inflight", &t),
                failures: resource_failures.clone(),
                ..Default::default()
            }),
            admitted: reg.counter("oodb_server_tenant_admitted_total", &t),
            shed_queue_full: shed("queue_full"),
            shed_circuit_open: shed("circuit_open"),
            resource_failures,
        }
    }

    /// Runs the tenant's gate. `Ok` is a permit to settle with the
    /// request's outcome (dropping it releases the slot regardless).
    pub fn admit(&self) -> Result<Permit<'_>, Shed> {
        let admitted = self.gate.admit(&self.admission);
        match &admitted {
            Ok(_) => self.admitted.inc(),
            Err(shed) if shed.reason == ShedReason::QueueFull => self.shed_queue_full.inc(),
            Err(_) => self.shed_circuit_open.inc(),
        }
        admitted
    }

    /// Currently admitted requests for this tenant.
    pub fn inflight(&self) -> usize {
        self.gate.inflight()
    }

    /// Lifetime admitted / shed / resource-failure counts.
    pub fn counts(&self) -> (u64, u64, u64, u64) {
        (
            self.admitted.get(),
            self.shed_queue_full.get(),
            self.shed_circuit_open.get(),
            self.resource_failures.get(),
        )
    }
}

/// The registry of tenants: one policy, states created lazily on first
/// request.
pub struct TenantRegistry {
    admission: AdmissionConfig,
    tenants: Mutex<HashMap<String, Arc<TenantState>>>,
    registry: Arc<MetricsRegistry>,
}

impl TenantRegistry {
    /// `admission` applies to every tenant, each through its own gate.
    /// `AdmissionConfig::default()` (everything disabled) makes tenant
    /// QoS a no-op, matching the service's own opt-in posture.
    pub fn new(admission: AdmissionConfig, registry: Arc<MetricsRegistry>) -> Self {
        TenantRegistry {
            admission,
            tenants: Mutex::new(HashMap::new()),
            registry,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<TenantState>>> {
        self.tenants.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The state for `tenant` (or [`DEFAULT_TENANT`]), created on first
    /// sight.
    pub fn tenant(&self, tenant: Option<&str>) -> Arc<TenantState> {
        let name = tenant.unwrap_or(DEFAULT_TENANT);
        let mut map = self.lock();
        if let Some(t) = map.get(name) {
            return Arc::clone(t);
        }
        let t = Arc::new(TenantState::new(name, self.admission, &self.registry));
        map.insert(name.to_string(), Arc::clone(&t));
        t
    }

    /// Snapshot of every tenant seen so far, sorted by name.
    pub fn snapshot(&self) -> Vec<Arc<TenantState>> {
        let mut v: Vec<_> = self.lock().values().cloned().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gate's policy is proven once, in `oodb_service::admission`;
    /// what is the registry's own is isolation and the per-tenant counts.
    #[test]
    fn one_tenants_saturation_sheds_only_that_tenant() {
        let reg = TenantRegistry::new(
            AdmissionConfig {
                max_inflight: 2,
                ..Default::default()
            },
            Arc::new(MetricsRegistry::new()),
        );
        let (a, b) = (reg.tenant(Some("a")), reg.tenant(Some("b")));
        let a1 = a.admit().unwrap();
        let _a2 = a.admit().unwrap();
        assert_eq!(a.admit().unwrap_err().reason, ShedReason::QueueFull);
        // Tenant b is untouched by a's saturation.
        let _b1 = b.admit().unwrap();
        // Releasing a slot re-opens tenant a.
        a1.settle(Ok(()));
        let _a3 = a.admit().unwrap();
        assert_eq!(a.counts(), (3, 1, 0, 0));
        assert_eq!((a.inflight(), b.inflight()), (2, 1));
        assert!(
            Arc::ptr_eq(&a, &reg.tenant(Some("a"))),
            "one state per name"
        );
        assert_eq!(reg.tenant(None).name, DEFAULT_TENANT);
    }
}
