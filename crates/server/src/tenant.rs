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
use oodb_sync::BoundedMap;
use oodb_telemetry::metrics::{Counter, MetricsRegistry};
use std::sync::{Arc, OnceLock};

/// The name requests without an explicit tenant land under.
pub const DEFAULT_TENANT: &str = "default";

/// Most tenants the registry holds besides [`DEFAULT_TENANT`]. A tenant
/// name comes off the wire and nothing frees one, so without a bound
/// every distinct name would keep a gate and five metric series for the
/// life of the server; past it a *new* name is refused like any other
/// full queue.
pub const MAX_TENANTS: usize = 256;

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
/// request. Named tenants live in a refuse-new [`BoundedMap`]; the
/// default one sits outside it, so it never counts against the bound.
pub struct TenantRegistry {
    admission: AdmissionConfig,
    default: OnceLock<Arc<TenantState>>,
    named: BoundedMap<String, Arc<TenantState>>,
    registry: Arc<MetricsRegistry>,
}

impl TenantRegistry {
    /// `admission` applies to every tenant, each through its own gate.
    /// `AdmissionConfig::default()` (everything disabled) makes tenant
    /// QoS a no-op, matching the service's own opt-in posture.
    pub fn new(admission: AdmissionConfig, registry: Arc<MetricsRegistry>) -> Self {
        TenantRegistry {
            admission,
            default: OnceLock::new(),
            named: BoundedMap::refuse_new(MAX_TENANTS, 1, |_| 0),
            registry,
        }
    }

    /// The state for `tenant` (or [`DEFAULT_TENANT`]), created on first
    /// sight; `None` for a new name once [`MAX_TENANTS`] others are held.
    /// Known tenants and the default one are always served.
    pub fn tenant(&self, tenant: Option<&str>) -> Option<Arc<TenantState>> {
        let make = |name| Arc::new(TenantState::new(name, self.admission, &self.registry));
        let Some(name) = tenant.filter(|&name| name != DEFAULT_TENANT) else {
            return Some(Arc::clone(
                self.default.get_or_init(|| make(DEFAULT_TENANT)),
            ));
        };
        let known = |t: &mut Arc<TenantState>, _| Arc::clone(t);
        self.named
            .get_or_insert_with(name.to_string(), || make(name), known)
    }

    /// Snapshot of every tenant seen so far, sorted by name.
    pub fn snapshot(&self) -> Vec<Arc<TenantState>> {
        let mut v: Vec<_> = self.default.get().into_iter().cloned().collect();
        self.named.for_each(|_, t| v.push(Arc::clone(t)));
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
        let (a, b) = (
            reg.tenant(Some("a")).unwrap(),
            reg.tenant(Some("b")).unwrap(),
        );
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
            Arc::ptr_eq(&a, &reg.tenant(Some("a")).unwrap()),
            "one state per name"
        );
        assert_eq!(reg.tenant(None).unwrap().name, DEFAULT_TENANT);
    }

    /// New names stop at the bound; known ones and the default do not.
    #[test]
    fn the_registry_refuses_new_names_past_its_bound() {
        let metrics = Arc::new(MetricsRegistry::new());
        let reg = TenantRegistry::new(AdmissionConfig::default(), Arc::clone(&metrics));
        for i in 0..MAX_TENANTS {
            assert!(reg.tenant(Some(&format!("t{i}"))).is_some());
        }
        assert!(reg.tenant(Some("one-too-many")).is_none());
        assert!(reg.tenant(Some("t0")).is_some(), "a known tenant");
        assert_eq!(reg.tenant(None).unwrap().name, DEFAULT_TENANT);
        assert!(reg.tenant(Some("one-too-many")).is_none());
        assert_eq!(reg.snapshot().len(), MAX_TENANTS + 1);
        let series = metrics.render_prometheus();
        assert!(
            !series.contains("one-too-many"),
            "no series for a refused name"
        );
    }
}
