//! # `oodb-fault` — deterministic fault injection and run limits
//!
//! The resilience substrate for the query service. Four small pieces,
//! none with a dependency beyond `oodb-mem`:
//!
//! * [`FaultInjector`] — a seedable fault model for the storage read path.
//!   Whether a page is faulty is a **pure function of `(seed, page)`**
//!   (a splitmix64 hash against [`FaultConfig::read_fault_rate`]), not a
//!   fresh random draw per access, so every replay of the same workload
//!   sees the same faults. Faulty pages are either *transient* — they fault
//!   once and then heal, which makes retried executions converge
//!   monotonically — or *permanent*, faulting on every access forever. The injector can also add per-access latency
//!   and inject outright panics ([`FaultConfig::panic_rate`]) to exercise
//!   `catch_unwind` isolation above it.
//! * [`WriteFaultInjector`] — the write-path mirror, consumed by the
//!   write-ahead log: torn writes (only a prefix of a record reaches the
//!   file before the simulated crash), partial flushes (a batched flush
//!   persists only some of its buffered records), and sync failures
//!   (`fsync` reports an error after the data may or may not be stable).
//!   Classification is a pure function of `(seed, operation index)`, so
//!   a crash schedule replays bit-for-bit.
//! * [`CancelToken`] — a cooperative cancellation flag shared between a
//!   submitter and the executor, checked at operator batch boundaries.
//! * [`RunLimits`] — the per-run admission envelope (deadline, cancel
//!   token, row and memory budgets, the run's injector and memory
//!   governor) threaded into the executor.
//!
//! The disabled hot path is one relaxed atomic load per page access; the
//! overhead of compiling the injector in but leaving it disabled is
//! measured in EXPERIMENTS.md (< 1% gate).

#![forbid(unsafe_code)]

use oodb_sync::lock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How a storage fault behaves across retries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Heals after one occurrence; a retry that re-reads the page
    /// succeeds.
    Transient,
    /// Faults on every access forever; retrying is pointless.
    Permanent,
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultClass::Transient => write!(f, "transient"),
            FaultClass::Permanent => write!(f, "permanent"),
        }
    }
}

/// One injected storage fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// The page whose read faulted.
    pub page: u64,
    /// Transient (retryable) or permanent.
    pub class: FaultClass,
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} storage fault on page {}", self.class, self.page)
    }
}

impl std::error::Error for Fault {}

/// How many times a transient page faults before healing: once, so a
/// single retry of the read that met it succeeds.
const FAULTS_PER_PAGE: u32 = 1;

/// Fault-model parameters. Immutable once the injector is built —
/// reconfigure by attaching a fresh injector.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Fraction of pages that are faulty, in `[0, 1]`. Faultiness is
    /// decided per page by hashing, so the *same* pages fault on every
    /// access of every replay with the same seed.
    pub read_fault_rate: f64,
    /// Among faulty pages, the fraction whose faults are permanent.
    pub permanent_ratio: f64,
    /// Fraction of pages whose first read panics outright (decided by an
    /// independent hash stream), for exercising panic isolation. A page
    /// panics once, then behaves normally.
    pub panic_rate: f64,
    /// Injected latency per page access, in nanoseconds (0 = none).
    pub latency_ns: u64,
    /// Seed for the page-classification hash.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            read_fault_rate: 0.0,
            permanent_ratio: 0.0,
            panic_rate: 0.0,
            latency_ns: 0,
            seed: 0xD15EA5E,
        }
    }
}

/// Counters the injector accumulates, snapshot via
/// [`FaultInjector::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Total faults injected (transient + permanent, not panics).
    pub injected: u64,
    /// Transient faults injected.
    pub transient: u64,
    /// Permanent faults injected.
    pub permanent: u64,
    /// Panics injected.
    pub panics: u64,
    /// Accesses to healed transient pages that passed through.
    pub healed_accesses: u64,
    /// Accesses that paid injected latency.
    pub latency_events: u64,
}

struct InjectorInner {
    config: FaultConfig,
    enabled: AtomicBool,
    injected: AtomicU64,
    transient: AtomicU64,
    permanent: AtomicU64,
    panics: AtomicU64,
    healed_accesses: AtomicU64,
    latency_events: AtomicU64,
    /// Per-page transient fault occurrences (healing bookkeeping). The
    /// panic set rides in the same map via [`InjectorInner::panicked`].
    transient_hits: Mutex<HashMap<u64, u32>>,
    /// Pages whose injected panic already fired.
    panicked: Mutex<HashMap<u64, ()>>,
}

/// A deterministic, seedable storage fault injector. Cheap to clone —
/// clones share counters and healing state.
#[derive(Clone)]
pub struct FaultInjector {
    inner: Arc<InjectorInner>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("config", &self.inner.config)
            .field("enabled", &self.enabled())
            .field("stats", &self.stats())
            .finish()
    }
}

impl FaultInjector {
    /// Builds an enabled injector with the given configuration.
    pub fn new(config: FaultConfig) -> Self {
        FaultInjector {
            inner: Arc::new(InjectorInner {
                config,
                enabled: AtomicBool::new(true),
                injected: AtomicU64::new(0),
                transient: AtomicU64::new(0),
                permanent: AtomicU64::new(0),
                panics: AtomicU64::new(0),
                healed_accesses: AtomicU64::new(0),
                latency_events: AtomicU64::new(0),
                transient_hits: Mutex::new(HashMap::new()),
                panicked: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// The injector's (immutable) configuration.
    pub fn config(&self) -> FaultConfig {
        self.inner.config
    }

    /// Whether fault injection is active. Disabled, the read-path check is
    /// one relaxed load.
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turns injection on or off without losing counters or healing state.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Snapshot of the injection counters.
    pub fn stats(&self) -> FaultStats {
        let i = &self.inner;
        FaultStats {
            injected: i.injected.load(Ordering::Relaxed),
            transient: i.transient.load(Ordering::Relaxed),
            permanent: i.permanent.load(Ordering::Relaxed),
            panics: i.panics.load(Ordering::Relaxed),
            healed_accesses: i.healed_accesses.load(Ordering::Relaxed),
            latency_events: i.latency_events.load(Ordering::Relaxed),
        }
    }

    /// How `(seed, page)` classifies: `None` = healthy page.
    fn classify(&self, page: u64) -> Option<FaultClass> {
        let cfg = &self.inner.config;
        let h = splitmix64(cfg.seed ^ splitmix64(page));
        if unit(h) >= cfg.read_fault_rate {
            return None;
        }
        if unit(splitmix64(h)) < cfg.permanent_ratio {
            Some(FaultClass::Permanent)
        } else {
            Some(FaultClass::Transient)
        }
    }

    /// Whether `(seed, page)` is in the panic stream (independent of the
    /// fault stream — a different hash tweak).
    fn classify_panic(&self, page: u64) -> bool {
        let cfg = &self.inner.config;
        if cfg.panic_rate <= 0.0 {
            return false;
        }
        let h = splitmix64(cfg.seed.rotate_left(17) ^ splitmix64(page ^ 0xA5A5_A5A5));
        unit(h) < cfg.panic_rate
    }

    /// The read-path hook: called once per page access *before* the buffer
    /// pool. Sleeps injected latency, panics for panic-stream pages (once
    /// per page), and returns the fault for faulty pages. Transient pages
    /// heal after one occurrence.
    ///
    /// # Panics
    ///
    /// Deliberately, for pages in the panic stream — the point is to test
    /// the `catch_unwind` isolation of the layers above. No injector lock
    /// is held when the panic is raised.
    pub fn check_read(&self, page: u64) -> Result<(), Fault> {
        if !self.enabled() {
            return Ok(());
        }
        let i = &self.inner;
        if i.config.latency_ns > 0 {
            i.latency_events.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_nanos(i.config.latency_ns));
        }
        if self.classify_panic(page) {
            let fire = lock(&i.panicked).insert(page, ()).is_none();
            if fire {
                i.panics.fetch_add(1, Ordering::Relaxed);
                panic!("injected panic fault on page {page}");
            }
        }
        match self.classify(page) {
            None => Ok(()),
            Some(FaultClass::Permanent) => {
                i.injected.fetch_add(1, Ordering::Relaxed);
                i.permanent.fetch_add(1, Ordering::Relaxed);
                Err(Fault {
                    page,
                    class: FaultClass::Permanent,
                })
            }
            Some(FaultClass::Transient) => {
                let healed = {
                    let mut hits = lock(&i.transient_hits);
                    let count = hits.entry(page).or_insert(0);
                    if *count >= FAULTS_PER_PAGE {
                        true
                    } else {
                        *count += 1;
                        false
                    }
                };
                if healed {
                    i.healed_accesses.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                } else {
                    i.injected.fetch_add(1, Ordering::Relaxed);
                    i.transient.fetch_add(1, Ordering::Relaxed);
                    Err(Fault {
                        page,
                        class: FaultClass::Transient,
                    })
                }
            }
        }
    }
}

/// splitmix64: the standard 64-bit finalizer-style mixer. Good enough to
/// decorrelate page ids; trivially reproducible from the seed.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform value in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

// ---- write-path faults ------------------------------------------------------

/// How a write-path fault manifests. All three model a storage stack that
/// lies in a different place: the OS crashing mid-`write`, a drive cache
/// dropping un-synced sectors, and `fsync` itself failing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteFault {
    /// The process "crashed" mid-append: only the first `kept` bytes of
    /// the record reached the file. The log's tail is now garbage.
    TornWrite {
        /// Bytes of the record that were persisted before the cut.
        kept: usize,
    },
    /// A batched flush persisted only a prefix of its buffered records;
    /// the rest evaporated with the volatile cache.
    PartialFlush {
        /// Buffered records that actually reached the file.
        kept_records: usize,
    },
    /// The durability barrier itself failed: `fsync` returned an error,
    /// so nothing written since the last successful sync may be trusted.
    SyncFailure,
}

impl std::fmt::Display for WriteFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteFault::TornWrite { kept } => {
                write!(f, "torn write: only {kept} bytes persisted")
            }
            WriteFault::PartialFlush { kept_records } => {
                write!(f, "partial flush: only {kept_records} records persisted")
            }
            WriteFault::SyncFailure => write!(f, "sync failure"),
        }
    }
}

impl std::error::Error for WriteFault {}

/// Write-path fault-model parameters. Immutable once the injector is
/// built, like [`FaultConfig`].
#[derive(Clone, Copy, Debug)]
pub struct WriteFaultConfig {
    /// Fraction of appends that are torn, in `[0, 1]`. Which appends tear
    /// — and how many bytes survive — is a pure function of
    /// `(seed, append index)`.
    pub torn_write_rate: f64,
    /// Fraction of flushes that persist only a prefix of their batch.
    pub partial_flush_rate: f64,
    /// Fraction of syncs that report failure.
    pub sync_failure_rate: f64,
    /// Seed for the operation-classification hash.
    pub seed: u64,
}

impl Default for WriteFaultConfig {
    fn default() -> Self {
        WriteFaultConfig {
            torn_write_rate: 0.0,
            partial_flush_rate: 0.0,
            sync_failure_rate: 0.0,
            seed: 0x0DD_BA11,
        }
    }
}

/// Counters the write injector accumulates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteFaultStats {
    /// Torn writes injected.
    pub torn_writes: u64,
    /// Partial flushes injected.
    pub partial_flushes: u64,
    /// Sync failures injected.
    pub sync_failures: u64,
}

struct WriteInjectorInner {
    config: WriteFaultConfig,
    enabled: AtomicBool,
    torn_writes: AtomicU64,
    partial_flushes: AtomicU64,
    sync_failures: AtomicU64,
}

/// Deterministic write-path fault injector for the WAL. Cheap to clone —
/// clones share counters. The log consults it at each append (`op` = the
/// record's sequence number), flush, and sync.
#[derive(Clone)]
pub struct WriteFaultInjector {
    inner: Arc<WriteInjectorInner>,
}

impl std::fmt::Debug for WriteFaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteFaultInjector")
            .field("config", &self.inner.config)
            .field("enabled", &self.enabled())
            .field("stats", &self.stats())
            .finish()
    }
}

impl WriteFaultInjector {
    /// Builds an enabled injector with the given configuration.
    pub fn new(config: WriteFaultConfig) -> Self {
        WriteFaultInjector {
            inner: Arc::new(WriteInjectorInner {
                config,
                enabled: AtomicBool::new(true),
                torn_writes: AtomicU64::new(0),
                partial_flushes: AtomicU64::new(0),
                sync_failures: AtomicU64::new(0),
            }),
        }
    }

    /// The injector's (immutable) configuration.
    pub fn config(&self) -> WriteFaultConfig {
        self.inner.config
    }

    /// Whether injection is active.
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turns injection on or off without losing counters.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Snapshot of the injection counters.
    pub fn stats(&self) -> WriteFaultStats {
        let i = &self.inner;
        WriteFaultStats {
            torn_writes: i.torn_writes.load(Ordering::Relaxed),
            partial_flushes: i.partial_flushes.load(Ordering::Relaxed),
            sync_failures: i.sync_failures.load(Ordering::Relaxed),
        }
    }

    /// Append hook: for a torn append, returns the fault carrying how many
    /// of the record's `len` bytes the log must persist before "crashing"
    /// (always a strict prefix, possibly zero). `op` is the record's
    /// sequence number, so the tear schedule is replay-stable.
    pub fn check_append(&self, op: u64, len: usize) -> Result<(), WriteFault> {
        if !self.enabled() {
            return Ok(());
        }
        let cfg = &self.inner.config;
        let h = splitmix64(cfg.seed ^ splitmix64(op ^ 0x7047_0047));
        if unit(h) >= cfg.torn_write_rate {
            return Ok(());
        }
        self.inner.torn_writes.fetch_add(1, Ordering::Relaxed);
        let kept = if len == 0 {
            0
        } else {
            (splitmix64(h) as usize) % len
        };
        Err(WriteFault::TornWrite { kept })
    }

    /// Flush hook: for a partial flush of `buffered` records, returns the
    /// fault carrying how many buffered records survive (a strict prefix).
    pub fn check_flush(&self, op: u64, buffered: usize) -> Result<(), WriteFault> {
        if !self.enabled() {
            return Ok(());
        }
        let cfg = &self.inner.config;
        let h = splitmix64(cfg.seed.rotate_left(21) ^ splitmix64(op ^ 0xF1A5_0F1A));
        if unit(h) >= cfg.partial_flush_rate || buffered == 0 {
            return Ok(());
        }
        self.inner.partial_flushes.fetch_add(1, Ordering::Relaxed);
        Err(WriteFault::PartialFlush {
            kept_records: (splitmix64(h) as usize) % buffered,
        })
    }

    /// Sync hook: decides whether this durability barrier fails.
    pub fn check_sync(&self, op: u64) -> Result<(), WriteFault> {
        if !self.enabled() {
            return Ok(());
        }
        let cfg = &self.inner.config;
        let h = splitmix64(cfg.seed.rotate_left(42) ^ splitmix64(op ^ 0x5A5A_11FE));
        if unit(h) >= cfg.sync_failure_rate {
            return Ok(());
        }
        self.inner.sync_failures.fetch_add(1, Ordering::Relaxed);
        Err(WriteFault::SyncFailure)
    }
}

/// A cooperative cancellation flag. Cheap to clone; all clones observe the
/// same flag. The executor polls it at operator batch boundaries.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// The admission envelope for one execution run: all limits the executor
/// checks cooperatively at batch boundaries, and the fault injector and
/// memory governor the run answers to. `Default` is an unlimited,
/// fault-free, ungoverned run.
#[derive(Clone, Debug, Default)]
pub struct RunLimits {
    /// Absolute deadline; execution past it fails with a deadline error.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation flag.
    pub cancel: Option<CancelToken>,
    /// Maximum tuples the run may produce before being cut off.
    pub row_budget: Option<u64>,
    /// Per-query memory grant budget in bytes. Enforced by the
    /// executor's memory grant: operators that would exceed it spill or
    /// stage instead of growing, and fail typed when even the minimum
    /// working unit does not fit.
    pub mem_budget: Option<u64>,
    /// The injector every page read of the run consults first. Clones
    /// share counters and healing state.
    pub injector: Option<FaultInjector>,
    /// The process-wide ledger the run draws its memory grant from;
    /// without one the grant is detached (`mem_budget` still applies).
    pub governor: Option<oodb_mem::MemoryGovernor>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector(rate: f64, permanent_ratio: f64, seed: u64) -> FaultInjector {
        FaultInjector::new(FaultConfig {
            read_fault_rate: rate,
            permanent_ratio,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn classification_is_deterministic_per_seed() {
        let a = injector(0.3, 0.5, 42);
        let b = injector(0.3, 0.5, 42);
        for page in 0..512 {
            assert_eq!(a.classify(page), b.classify(page), "page {page}");
        }
        // A different seed reshuffles which pages fault.
        let c = injector(0.3, 0.5, 43);
        assert!((0..512).any(|p| a.classify(p) != c.classify(p)));
    }

    #[test]
    fn fault_rate_roughly_matches() {
        let inj = injector(0.10, 0.0, 7);
        let faulty = (0..10_000).filter(|&p| inj.classify(p).is_some()).count();
        assert!((800..1200).contains(&faulty), "got {faulty} of 10000");
    }

    #[test]
    fn transient_pages_heal_after_configured_faults() {
        let inj = injector(1.0, 0.0, 1);
        let err = inj.check_read(5).unwrap_err();
        assert_eq!(err.class, FaultClass::Transient);
        assert!(inj.check_read(5).is_ok(), "second access healed");
        let s = inj.stats();
        assert_eq!((s.injected, s.transient, s.healed_accesses), (1, 1, 1));
    }

    #[test]
    fn permanent_pages_never_heal() {
        let inj = injector(1.0, 1.0, 1);
        for _ in 0..3 {
            assert_eq!(inj.check_read(9).unwrap_err().class, FaultClass::Permanent);
        }
        assert_eq!(inj.stats().permanent, 3);
    }

    #[test]
    fn disabled_injector_is_transparent() {
        let inj = injector(1.0, 1.0, 1);
        inj.set_enabled(false);
        assert!(inj.check_read(1).is_ok());
        assert_eq!(inj.stats().injected, 0);
        inj.set_enabled(true);
        assert!(inj.check_read(1).is_err());
    }

    #[test]
    fn injected_panic_fires_once_per_page() {
        let inj = FaultInjector::new(FaultConfig {
            panic_rate: 1.0,
            ..Default::default()
        });
        let inj2 = inj.clone();
        let caught = std::panic::catch_unwind(move || inj2.check_read(3));
        assert!(caught.is_err(), "first access panics");
        assert!(inj.check_read(3).is_ok(), "page panics only once");
        assert_eq!(inj.stats().panics, 1);
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!t.is_cancelled());
        c.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn write_faults_are_deterministic_per_seed() {
        let cfg = WriteFaultConfig {
            torn_write_rate: 0.3,
            partial_flush_rate: 0.3,
            sync_failure_rate: 0.3,
            seed: 99,
        };
        let a = WriteFaultInjector::new(cfg);
        let b = WriteFaultInjector::new(cfg);
        for op in 0..256 {
            assert_eq!(a.check_append(op, 100), b.check_append(op, 100));
            assert_eq!(a.check_flush(op, 8), b.check_flush(op, 8));
            assert_eq!(a.check_sync(op), b.check_sync(op));
        }
        // The three streams are independent: some op must tear without
        // failing sync (and vice versa) at these rates.
        let disagree = (0..256).any(|op| {
            let torn = a.check_append(op, 100).is_err();
            let sync = a.check_sync(op).is_err();
            torn != sync
        });
        assert!(disagree, "append and sync streams must be independent");
    }

    #[test]
    fn torn_write_keeps_a_strict_prefix() {
        let inj = WriteFaultInjector::new(WriteFaultConfig {
            torn_write_rate: 1.0,
            ..Default::default()
        });
        for op in 0..64 {
            match inj.check_append(op, 40) {
                Err(WriteFault::TornWrite { kept }) => assert!(kept < 40),
                other => panic!("expected torn write, got {other:?}"),
            }
        }
        assert_eq!(inj.stats().torn_writes, 64);
    }

    #[test]
    fn partial_flush_keeps_a_strict_prefix_of_records() {
        let inj = WriteFaultInjector::new(WriteFaultConfig {
            partial_flush_rate: 1.0,
            ..Default::default()
        });
        match inj.check_flush(0, 5) {
            Err(WriteFault::PartialFlush { kept_records }) => assert!(kept_records < 5),
            other => panic!("expected partial flush, got {other:?}"),
        }
        // An empty batch cannot partially flush.
        assert!(inj.check_flush(1, 0).is_ok());
    }

    #[test]
    fn disabled_write_injector_is_transparent() {
        let inj = WriteFaultInjector::new(WriteFaultConfig {
            torn_write_rate: 1.0,
            partial_flush_rate: 1.0,
            sync_failure_rate: 1.0,
            ..Default::default()
        });
        inj.set_enabled(false);
        assert!(inj.check_append(0, 10).is_ok());
        assert!(inj.check_flush(0, 10).is_ok());
        assert!(inj.check_sync(0).is_ok());
        assert_eq!(inj.stats(), WriteFaultStats::default());
    }
}
