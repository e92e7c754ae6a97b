//! The one admission gate: an in-flight cap plus a circuit breaker.
//!
//! [`crate::QueryService`] holds one [`Gate`] for the process and the
//! server holds one per tenant; both run the same policy:
//!
//! * **Cap** — at most [`AdmissionConfig::max_inflight`] permits are out
//!   at any instant (0 = unlimited); the excess is shed with
//!   [`ShedReason::QueueFull`].
//! * **Breaker** — an outcome for which
//!   [`ServiceError::is_resource_failure`] holds counts as a failure, a
//!   success closes the breaker and resets the count, and *every other
//!   outcome leaves the count alone* (a malformed query says nothing
//!   about capacity, in either direction).
//!   [`AdmissionConfig::breaker_threshold`] consecutive failures open the
//!   breaker for [`AdmissionConfig::breaker_cooldown`]; while open,
//!   submissions are shed with [`ShedReason::CircuitOpen`] and the
//!   remaining cooldown as [`Shed::retry_after`]. After the cooldown the
//!   breaker half-opens with the count still at the threshold, so one
//!   failed probe re-trips at once and one success closes.
//! * **Unsettled permits** — a [`Permit`] dropped without
//!   [`Permit::settle`] (a panic unwound through it) counts as a failure.

use crate::ServiceError;
use oodb_sync::lock;
use oodb_telemetry::{Counter, Gauge};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Why an overloaded service refused a submission without running it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The in-flight cap was reached.
    QueueFull,
    /// The circuit breaker is open after repeated resource failures.
    CircuitOpen,
    /// The memory governor reported critical pressure at admission.
    MemoryPressure,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ShedReason::QueueFull => "queue full",
            ShedReason::CircuitOpen => "circuit breaker open",
            ShedReason::MemoryPressure => "memory pressure critical",
        })
    }
}

/// Admission-control policy for one [`Gate`] scope. Everything is
/// disabled by default — nothing is refused until an operator opts in
/// ([`crate::QueryService::set_admission`] for the process, the server's
/// tenant policy per tenant).
///
/// The overload ladder runs *degrade → shed → fail*: under
/// [`oodb_exec::PressureLevel::High`] submissions degrade (greedy
/// plan, halved grant) before anything is refused; at `Critical` they
/// shed with [`ServiceError::Overloaded`] so in-flight work can finish;
/// only an execution whose grant cannot cover its smallest working unit
/// fails with [`ServiceError::MemoryExhausted`].
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Maximum concurrently admitted submissions (0 = unlimited). The
    /// excess is refused with [`ShedReason::QueueFull`].
    pub max_inflight: usize,
    /// Consecutive resource failures that trip the circuit breaker
    /// (0 = breaker disabled).
    pub breaker_threshold: u32,
    /// How long a tripped breaker sheds before half-opening to probe.
    pub breaker_cooldown: Duration,
    /// Enables the process-wide pressure ladder: degrade under `High`
    /// memory pressure, shed at `Critical`. Ignored by tenant gates —
    /// pressure is a process property.
    pub degrade_under_pressure: bool,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_inflight: 0,
            breaker_threshold: 0,
            breaker_cooldown: Duration::from_millis(100),
            degrade_under_pressure: false,
        }
    }
}

/// Backoff suggested for a shed with no cooldown to wait out.
const RETRY_SOON: Duration = Duration::from_secs(1);

/// A refusal at the gate, before any work ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shed {
    /// Which rung refused.
    pub reason: ShedReason,
    /// Suggested client backoff: the breaker's remaining cooldown, or
    /// one second for a full gate.
    pub retry_after: Duration,
}

/// The series a gate keeps current. Its owner registers them under
/// whatever names and labels fit its scope; detached defaults are fine
/// for a series the scope does not export.
#[derive(Clone, Debug, Default)]
pub struct GateMetrics {
    /// Permits currently out.
    pub inflight: Gauge,
    /// Outcomes counted as resource failures.
    pub failures: Counter,
    /// Closed → open transitions.
    pub trips: Counter,
    /// 1 while the breaker sheds, else 0.
    pub open: Gauge,
}

/// Locked poison-recovering ([`lock`]): it is valid after every single
/// store, and [`Permit`]'s `Drop` must not panic while another unwinds.
#[derive(Debug, Default)]
struct Breaker {
    consecutive_failures: u32,
    open_until: Option<Instant>,
}

/// See the module documentation for the policy.
#[derive(Debug, Default)]
pub struct Gate {
    inflight: AtomicUsize,
    breaker: Mutex<Breaker>,
    metrics: GateMetrics,
}

impl Gate {
    /// A closed, empty gate reporting into `metrics`.
    pub fn new(metrics: GateMetrics) -> Self {
        Gate {
            metrics,
            ..Gate::default()
        }
    }

    /// Permits currently out.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }

    /// What to tell a refused client: the breaker's remaining cooldown
    /// while it is open, one second otherwise.
    pub fn retry_after(&self) -> Duration {
        let until = lock(&self.breaker).open_until;
        until
            .map(|u| u.saturating_duration_since(Instant::now()))
            .filter(|left| !left.is_zero())
            .unwrap_or(RETRY_SOON)
    }

    /// Runs the ladder. `Ok` is a slot: settle it with the outcome;
    /// dropping it releases the slot on every path out.
    pub fn admit(&self, cfg: &AdmissionConfig) -> Result<Permit<'_>, Shed> {
        // Breaker first: an open breaker sheds even a free slot, because
        // admitted work would hit the same failing resource again.
        if cfg.breaker_threshold > 0 {
            let mut b = lock(&self.breaker);
            if let Some(until) = b.open_until {
                let left = until.saturating_duration_since(Instant::now());
                if !left.is_zero() {
                    return Err(Shed {
                        reason: ShedReason::CircuitOpen,
                        retry_after: left,
                    });
                }
                b.open_until = None;
                self.metrics.open.set(0);
            }
        }
        // Optimistic claim, rolled back on overflow. The counter never
        // reads below the number of permits out, so a claim that saw
        // fewer than `max_inflight` cannot push the permits past it.
        let claimed = self.inflight.fetch_add(1, Ordering::AcqRel);
        if cfg.max_inflight > 0 && claimed >= cfg.max_inflight {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            return Err(Shed {
                reason: ShedReason::QueueFull,
                retry_after: RETRY_SOON,
            });
        }
        self.metrics.inflight.add(1);
        Ok(Permit {
            gate: self,
            cfg: *cfg,
            settled: false,
        })
    }

    fn record(&self, cfg: &AdmissionConfig, outcome: Result<(), &ServiceError>) {
        if cfg.breaker_threshold == 0 {
            return;
        }
        let failed = match outcome {
            Ok(()) => false,
            Err(e) if e.is_resource_failure() => true,
            Err(_) => return,
        };
        let mut b = lock(&self.breaker);
        if !failed {
            *b = Breaker::default();
            self.metrics.open.set(0);
            return;
        }
        self.metrics.failures.inc();
        b.consecutive_failures = b.consecutive_failures.saturating_add(1);
        if b.consecutive_failures >= cfg.breaker_threshold {
            // Failures landing on an already-open breaker extend the
            // cooldown but are not a new trip.
            if b.open_until.is_none() {
                self.metrics.trips.inc();
                self.metrics.open.set(1);
            }
            b.open_until = Some(Instant::now() + cfg.breaker_cooldown);
        }
    }
}

/// An admitted submission's slot.
#[derive(Debug)]
pub struct Permit<'a> {
    gate: &'a Gate,
    /// The policy it was admitted under, which also judges its outcome.
    cfg: AdmissionConfig,
    settled: bool,
}

impl Permit<'_> {
    /// Feeds the outcome to the breaker and releases the slot.
    pub fn settle(mut self, outcome: Result<(), &ServiceError>) {
        self.settled = true;
        self.gate.record(&self.cfg, outcome);
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        if !self.settled {
            let unwound = ServiceError::Panicked(String::new());
            self.gate.record(&self.cfg, Err(&unwound));
        }
        self.gate.inflight.fetch_sub(1, Ordering::AcqRel);
        self.gate.metrics.inflight.sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    const COOLDOWN: Duration = Duration::from_millis(150);

    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// Admit (must succeed) and keep the permit.
        Hold,
        /// Settle the oldest held permit `Ok`.
        Release,
        /// Admit (must succeed) and settle with a success.
        Succeed,
        /// Admit (must succeed) and settle with a storage fault.
        Fail,
        /// Admit (must succeed) and settle with the given benign error.
        Benign(fn() -> ServiceError),
        /// Admit (must succeed) and drop the permit unsettled.
        Unwind,
        /// Admit must be refused for this reason.
        Refused(ShedReason),
        /// Wait out the breaker cooldown.
        Cooldown,
    }
    use Step::*;

    fn cfg(max_inflight: usize, breaker_threshold: u32) -> AdmissionConfig {
        AdmissionConfig {
            max_inflight,
            breaker_threshold,
            breaker_cooldown: COOLDOWN,
            ..Default::default()
        }
    }

    /// Every behaviour of the gate, one row each: `(name, policy, steps,
    /// failures counted, trips counted)`. `QueryService` and the server's
    /// tenants hold this same type, so the table is the proof for both.
    #[test]
    fn gate_policy_table() {
        let table: &[(&str, AdmissionConfig, &[Step], u64, u64)] = &[
            (
                "cap sheds the excess and a release re-opens",
                cfg(2, 0),
                &[Hold, Hold, Refused(ShedReason::QueueFull), Release, Hold],
                0,
                0,
            ),
            (
                "disabled breaker never trips or counts",
                cfg(0, 0),
                &[Fail, Fail, Unwind, Succeed],
                0,
                0,
            ),
            (
                "threshold consecutive failures trip",
                cfg(0, 2),
                &[Fail, Fail, Refused(ShedReason::CircuitOpen)],
                2,
                1,
            ),
            (
                "a success between failures resets the count",
                cfg(0, 2),
                &[Fail, Succeed, Fail, Succeed],
                2,
                0,
            ),
            (
                "half-open: one failed probe re-trips at once",
                cfg(0, 2),
                &[
                    Fail,
                    Fail,
                    Refused(ShedReason::CircuitOpen),
                    Cooldown,
                    Fail,
                    Refused(ShedReason::CircuitOpen),
                ],
                3,
                2,
            ),
            (
                "half-open: a successful probe closes fully",
                cfg(0, 2),
                &[Fail, Fail, Cooldown, Succeed, Fail, Succeed],
                3,
                1,
            ),
            (
                "benign errors neither count nor reset",
                cfg(0, 2),
                &[
                    Benign(|| ServiceError::NoPlan),
                    Fail,
                    Benign(|| ServiceError::RowBudgetExceeded { budget: 1 }),
                    Benign(|| ServiceError::DeadlineExceeded { stage: "execute" }),
                    Benign(|| ServiceError::Cancelled),
                    Fail,
                    Refused(ShedReason::CircuitOpen),
                ],
                2,
                1,
            ),
            (
                "an unsettled permit is a failure and still frees its slot",
                cfg(1, 1),
                &[Unwind, Refused(ShedReason::CircuitOpen)],
                1,
                1,
            ),
            (
                "an open breaker sheds even a free slot",
                cfg(2, 1),
                &[Hold, Fail, Refused(ShedReason::CircuitOpen), Release],
                1,
                1,
            ),
        ];
        for (name, cfg, steps, failures, trips) in table {
            let gate = Gate::default();
            let mut held = std::collections::VecDeque::new();
            for (i, step) in steps.iter().enumerate() {
                let at = format!("{name}: step {i} {step:?}");
                match step {
                    Refused(reason) => {
                        let shed = gate.admit(cfg).expect_err(&at);
                        assert_eq!(shed.reason, *reason, "{at}");
                        assert!(!shed.retry_after.is_zero(), "{at}");
                        if *reason == ShedReason::CircuitOpen {
                            assert!(shed.retry_after <= COOLDOWN, "{at}");
                            assert!(gate.retry_after() <= shed.retry_after, "{at}");
                            assert_eq!(gate.metrics.open.get(), 1, "{at}");
                        }
                    }
                    Cooldown => std::thread::sleep(COOLDOWN + Duration::from_millis(30)),
                    Release => held
                        .pop_front()
                        .map(|p: Permit| p.settle(Ok(())))
                        .expect(&at),
                    Hold => held.push_back(gate.admit(cfg).expect(&at)),
                    run => {
                        let permit = gate.admit(cfg).expect(&at);
                        match run {
                            Succeed => permit.settle(Ok(())),
                            Fail => permit.settle(Err(&ServiceError::StorageFault {
                                transient: false,
                                retries: 0,
                            })),
                            Benign(e) => permit.settle(Err(&e())),
                            _ => drop(permit),
                        }
                    }
                }
                assert_eq!(gate.inflight(), held.len(), "{at}");
                assert_eq!(gate.metrics.inflight.get(), held.len() as i64, "{at}");
            }
            assert_eq!(gate.metrics.failures.get(), *failures, "{name}");
            assert_eq!(gate.metrics.trips.get(), *trips, "{name}");
        }
    }

    /// Eight threads hammer a gate of three slots: the permits out never
    /// exceed the cap at any instant, and none leaks.
    #[test]
    fn hammer_never_exceeds_the_cap() {
        const THREADS: usize = 8;
        const CAP: usize = 3;
        let gate = Gate::default();
        let cfg = cfg(CAP, 0);
        let (out, peak, admitted) = (
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        );
        let start = Barrier::new(THREADS + 1);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    // Saturated phase: the main thread holds every slot.
                    start.wait();
                    assert_eq!(gate.admit(&cfg).unwrap_err().reason, ShedReason::QueueFull);
                    start.wait();
                    // Free-for-all phase.
                    start.wait();
                    for _ in 0..5_000 {
                        if let Ok(permit) = gate.admit(&cfg) {
                            let now = out.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            admitted.fetch_add(1, Ordering::Relaxed);
                            std::thread::yield_now();
                            out.fetch_sub(1, Ordering::SeqCst);
                            permit.settle(Ok(()));
                        }
                    }
                });
            }
            let all: Vec<_> = (0..CAP).map(|_| gate.admit(&cfg).unwrap()).collect();
            start.wait();
            start.wait();
            drop(all);
            start.wait();
        });
        let peak = peak.load(Ordering::SeqCst);
        assert!((1..=CAP).contains(&peak), "peak {peak} permits out");
        assert!(admitted.load(Ordering::Relaxed) > 0);
        assert_eq!(gate.inflight(), 0, "every slot released");
    }
}
