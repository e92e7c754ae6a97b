//! Memory governance for the Open OODB reproduction.
//!
//! The paper's hybrid hash join and assembly window exist because memory
//! is finite; this crate makes that constraint explicit at runtime. A
//! process-wide [`MemoryGovernor`] holds a byte capacity and hands out
//! per-query [`MemoryGrant`]s. Operators reserve bytes *before* building
//! hash tables or opening assembly windows and release them when done; a
//! denied reservation is the signal to spill, shrink, or stage rather
//! than to grow without bound.
//!
//! Design points, mirroring `oodb_fault::FaultInjector`:
//!
//! - **Shared by `Clone`.** Both governor and grant are `Arc`-backed;
//!   clones observe the same counters, so a service thread and its
//!   executors reconcile against one ledger.
//! - **Relaxed atomics only.** Reservations are advisory accounting for
//!   a simulated machine, not allocator hooks; the hot path is a couple
//!   of relaxed read-modify-writes per *operator* (never per row).
//! - **Leak-proof by `Drop`.** A grant returns every outstanding byte to
//!   the governor when dropped, so `reserved == 0` and
//!   `reserved_total == released_total` hold at quiesce even on error
//!   paths that unwind mid-operator.
//! - **Detached mode.** [`MemoryGrant::detached`] enforces a per-query
//!   budget with no governor behind it, so `RunLimits::mem_budget` works
//!   even when no process-wide cap is attached.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Coarse utilisation bands for the governor, used by the service's
/// degradation ladder (degrade at [`PressureLevel::High`], shed at
/// [`PressureLevel::Critical`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PressureLevel {
    /// Under 50% of capacity reserved.
    Nominal,
    /// 50–75% reserved.
    Elevated,
    /// 75–90% reserved: new work should degrade (smaller grants,
    /// greedy plans) before being admitted.
    High,
    /// Over 90% reserved: new work should be shed.
    Critical,
}

impl std::fmt::Display for PressureLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PressureLevel::Nominal => "nominal",
            PressureLevel::Elevated => "elevated",
            PressureLevel::High => "high",
            PressureLevel::Critical => "critical",
        })
    }
}

/// Snapshot of the governor's ledger. At quiesce (no live grants)
/// `reserved == 0` and `reserved_total == released_total`; across any
/// run `spill_bytes_written == spill_bytes_read` because every spilled
/// partition is written once and read back once.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Configured capacity in bytes (`u64::MAX` means unlimited).
    pub capacity: u64,
    /// Bytes currently reserved across all live grants.
    pub reserved: u64,
    /// High-water mark of `reserved` since creation.
    pub peak_reserved: u64,
    /// Cumulative bytes ever reserved.
    pub reserved_total: u64,
    /// Cumulative bytes ever released.
    pub released_total: u64,
    /// Reservations refused (budget or capacity exhausted).
    pub grant_denials: u64,
    /// Bytes charged as spill-partition writes.
    pub spill_bytes_written: u64,
    /// Bytes charged as spill-partition reads.
    pub spill_bytes_read: u64,
    /// Grants issued since creation.
    pub grants_issued: u64,
}

#[derive(Debug, Default)]
struct GovInner {
    capacity: u64,
    reserved: AtomicU64,
    peak: AtomicU64,
    reserved_total: AtomicU64,
    released_total: AtomicU64,
    denials: AtomicU64,
    spill_written: AtomicU64,
    spill_read: AtomicU64,
    grants: AtomicU64,
}

/// Process-wide memory ledger. A run that carries one (the `governor`
/// of `oodb_fault::RunLimits`) draws its per-run [`MemoryGrant`] from it.
#[derive(Clone, Debug)]
pub struct MemoryGovernor {
    inner: Arc<GovInner>,
}

impl MemoryGovernor {
    /// Creates a governor with `capacity_bytes` of simulated memory.
    pub fn new(capacity_bytes: u64) -> Self {
        MemoryGovernor {
            inner: Arc::new(GovInner {
                capacity: capacity_bytes,
                ..Default::default()
            }),
        }
    }

    /// A governor that never denies: accounting without enforcement.
    /// Useful for measuring a workload's working set.
    pub fn unlimited() -> Self {
        MemoryGovernor::new(u64::MAX)
    }

    /// The configured capacity in bytes (`u64::MAX` = unlimited).
    pub fn capacity(&self) -> u64 {
        self.inner.capacity
    }

    /// Issues a grant against this governor. `budget` bounds what this
    /// one grant may hold at once (`None` = bounded only by capacity).
    pub fn grant(&self, budget: Option<u64>) -> MemoryGrant {
        self.inner.grants.fetch_add(1, Relaxed);
        MemoryGrant {
            inner: Arc::new(GrantInner {
                gov: Some(self.clone()),
                budget: budget.unwrap_or(u64::MAX),
                used: AtomicU64::new(0),
                peak: AtomicU64::new(0),
                denials: AtomicU64::new(0),
            }),
        }
    }

    /// Current utilisation band, by `reserved / capacity`.
    pub fn pressure(&self) -> PressureLevel {
        let cap = self.inner.capacity;
        if cap == 0 {
            return PressureLevel::Critical;
        }
        let frac = self.inner.reserved.load(Relaxed) as f64 / cap as f64;
        if frac < 0.50 {
            PressureLevel::Nominal
        } else if frac < 0.75 {
            PressureLevel::Elevated
        } else if frac < 0.90 {
            PressureLevel::High
        } else {
            PressureLevel::Critical
        }
    }

    /// Snapshot of the ledger.
    pub fn stats(&self) -> MemStats {
        let g = &self.inner;
        MemStats {
            capacity: g.capacity,
            reserved: g.reserved.load(Relaxed),
            peak_reserved: g.peak.load(Relaxed),
            reserved_total: g.reserved_total.load(Relaxed),
            released_total: g.released_total.load(Relaxed),
            grant_denials: g.denials.load(Relaxed),
            spill_bytes_written: g.spill_written.load(Relaxed),
            spill_bytes_read: g.spill_read.load(Relaxed),
            grants_issued: g.grants.load(Relaxed),
        }
    }

    fn try_reserve(&self, bytes: u64) -> bool {
        let g = &self.inner;
        let prev = g.reserved.fetch_add(bytes, Relaxed);
        if prev.saturating_add(bytes) > g.capacity {
            g.reserved.fetch_sub(bytes, Relaxed);
            g.denials.fetch_add(1, Relaxed);
            return false;
        }
        g.reserved_total.fetch_add(bytes, Relaxed);
        g.peak.fetch_max(prev + bytes, Relaxed);
        true
    }

    fn release(&self, bytes: u64) {
        let g = &self.inner;
        g.reserved.fetch_sub(bytes, Relaxed);
        g.released_total.fetch_add(bytes, Relaxed);
    }

    fn note_spill(&self, written: u64, read: u64) {
        self.inner.spill_written.fetch_add(written, Relaxed);
        self.inner.spill_read.fetch_add(read, Relaxed);
    }
}

#[derive(Debug)]
struct GrantInner {
    gov: Option<MemoryGovernor>,
    budget: u64,
    used: AtomicU64,
    peak: AtomicU64,
    denials: AtomicU64,
}

impl Drop for GrantInner {
    fn drop(&mut self) {
        // Return anything an unwound operator failed to release, so the
        // governor reconciles (`reserved == 0`) even on error paths.
        if let Some(gov) = &self.gov {
            let leaked = self.used.load(Relaxed);
            if leaked > 0 {
                gov.release(leaked);
            }
        }
    }
}

/// A per-query slice of the governor's capacity. Cheap to clone (shares
/// the ledger); releases all outstanding bytes on final drop.
#[derive(Clone, Debug)]
pub struct MemoryGrant {
    inner: Arc<GrantInner>,
}

impl MemoryGrant {
    /// A grant with no governor behind it: the per-query `budget` is
    /// still enforced (`None` = effectively unlimited). This is what an
    /// executor uses when no governor is attached to the store.
    pub fn detached(budget: Option<u64>) -> Self {
        MemoryGrant {
            inner: Arc::new(GrantInner {
                gov: None,
                budget: budget.unwrap_or(u64::MAX),
                used: AtomicU64::new(0),
                peak: AtomicU64::new(0),
                denials: AtomicU64::new(0),
            }),
        }
    }

    /// Tries to reserve `bytes` against the budget and (if governed) the
    /// governor's capacity. Returns `false` — charging nothing — when
    /// either would be exceeded; the caller should spill, shrink, or
    /// fail with a typed error.
    pub fn try_reserve(&self, bytes: u64) -> bool {
        let i = &*self.inner;
        let prev = i.used.fetch_add(bytes, Relaxed);
        if prev.saturating_add(bytes) > i.budget {
            i.used.fetch_sub(bytes, Relaxed);
            i.denials.fetch_add(1, Relaxed);
            return false;
        }
        if let Some(gov) = &i.gov {
            if !gov.try_reserve(bytes) {
                i.used.fetch_sub(bytes, Relaxed);
                i.denials.fetch_add(1, Relaxed);
                return false;
            }
        }
        i.peak.fetch_max(prev + bytes, Relaxed);
        true
    }

    /// Returns `bytes` to the grant (and governor). Releasing more than
    /// is held saturates at zero rather than underflowing.
    pub fn release(&self, bytes: u64) {
        let i = &*self.inner;
        let mut cur = i.used.load(Relaxed);
        let give = loop {
            let give = bytes.min(cur);
            match i
                .used
                .compare_exchange_weak(cur, cur - give, Relaxed, Relaxed)
            {
                Ok(_) => break give,
                Err(now) => cur = now,
            }
        };
        if give > 0 {
            if let Some(gov) = &i.gov {
                gov.release(give);
            }
        }
    }

    /// Bytes this grant currently holds.
    pub fn used(&self) -> u64 {
        self.inner.used.load(Relaxed)
    }

    /// High-water mark of bytes held by this grant.
    pub fn peak(&self) -> u64 {
        self.inner.peak.load(Relaxed)
    }

    /// The per-query budget (`u64::MAX` = unlimited).
    pub fn budget(&self) -> u64 {
        self.inner.budget
    }

    /// Reservations this grant has had refused.
    pub fn denials(&self) -> u64 {
        self.inner.denials.load(Relaxed)
    }

    /// Records spill traffic (in bytes) on the governor's ledger, if
    /// governed. The simulated I/O *time* is charged separately through
    /// the disk model at sequential rates.
    pub fn note_spill(&self, written: u64, read: u64) {
        if let Some(gov) = &self.inner.gov {
            gov.note_spill(written, read);
        }
    }
}

impl Default for MemoryGrant {
    fn default() -> Self {
        MemoryGrant::detached(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_reserve_and_release_against_capacity() {
        let gov = MemoryGovernor::new(1000);
        let g = gov.grant(None);
        assert!(g.try_reserve(600));
        assert!(!g.try_reserve(600), "601..1200 exceeds capacity");
        assert!(g.try_reserve(400));
        assert_eq!(g.used(), 1000);
        g.release(1000);
        let s = gov.stats();
        assert_eq!(s.reserved, 0);
        assert_eq!(s.peak_reserved, 1000);
        assert_eq!(s.reserved_total, s.released_total);
        assert_eq!(s.grant_denials, 1);
    }

    #[test]
    fn budget_binds_before_capacity() {
        let gov = MemoryGovernor::new(1000);
        let g = gov.grant(Some(100));
        assert!(!g.try_reserve(101));
        assert!(g.try_reserve(100));
        assert_eq!(gov.stats().reserved, 100);
        assert_eq!(g.denials(), 1);
    }

    #[test]
    fn drop_returns_outstanding_bytes() {
        let gov = MemoryGovernor::new(1000);
        {
            let g = gov.grant(None);
            assert!(g.try_reserve(700));
            // Simulated error path: no release before drop.
        }
        let s = gov.stats();
        assert_eq!(s.reserved, 0, "drop must reconcile the ledger");
        assert_eq!(s.reserved_total, s.released_total);
    }

    #[test]
    fn clones_share_one_ledger() {
        let gov = MemoryGovernor::new(1000);
        let g = gov.grant(None);
        let g2 = g.clone();
        assert!(g.try_reserve(400));
        assert!(g2.try_reserve(400));
        assert_eq!(g.used(), 800);
        drop(g2);
        assert_eq!(gov.stats().reserved, 800, "clone drop is not final drop");
        drop(g);
        assert_eq!(gov.stats().reserved, 0);
    }

    #[test]
    fn over_release_saturates() {
        let gov = MemoryGovernor::new(1000);
        let g = gov.grant(None);
        assert!(g.try_reserve(10));
        g.release(500);
        assert_eq!(g.used(), 0);
        assert_eq!(gov.stats().reserved, 0);
        assert_eq!(gov.stats().released_total, 10);
    }

    #[test]
    fn pressure_bands() {
        let gov = MemoryGovernor::new(100);
        let g = gov.grant(None);
        assert_eq!(gov.pressure(), PressureLevel::Nominal);
        assert!(g.try_reserve(50));
        assert_eq!(gov.pressure(), PressureLevel::Elevated);
        assert!(g.try_reserve(25));
        assert_eq!(gov.pressure(), PressureLevel::High);
        assert!(g.try_reserve(20));
        assert_eq!(gov.pressure(), PressureLevel::Critical);
        assert!(PressureLevel::Nominal < PressureLevel::Critical);
    }

    #[test]
    fn unlimited_governor_never_denies() {
        let gov = MemoryGovernor::unlimited();
        let g = gov.grant(None);
        assert!(g.try_reserve(1 << 40));
        assert_eq!(gov.pressure(), PressureLevel::Nominal);
    }

    #[test]
    fn detached_grant_enforces_budget_only() {
        let g = MemoryGrant::detached(Some(64));
        assert!(g.try_reserve(64));
        assert!(!g.try_reserve(1));
        g.release(32);
        assert!(g.try_reserve(1));
        assert_eq!(g.peak(), 64);
    }

    #[test]
    fn spill_bytes_reconcile() {
        let gov = MemoryGovernor::new(100);
        let g = gov.grant(None);
        g.note_spill(4096, 0);
        g.note_spill(0, 4096);
        let s = gov.stats();
        assert_eq!(s.spill_bytes_written, s.spill_bytes_read);
    }
}
