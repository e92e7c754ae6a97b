//! Execution-feedback accumulation and the re-optimization ladder's state.
//!
//! The optimizer's estimates come from catalog statistics that nothing
//! refreshes from observed behavior; the interval audit *detects* the
//! resulting drift (`oodb_actual_card_violations_total`). This module
//! consumes the signal:
//!
//! 1. **Observe.** Every execution reports its root row count
//!    ([`FeedbackStore::observe_root`]) — including the untraced hot
//!    path, so feedback is not silently disabled when profiling is off.
//!    Traced executions additionally hand over the nodes of
//!    [`walk_actual`](oodb_verify::walk_actual), the one walk pairing
//!    plan and trace ([`FeedbackStore::observe_trace`]), which attribute
//!    observed selectivities to individual predicates.
//! 2. **Suspect.** When a fingerprint's drift ratio
//!    ([`drift_ratio`]) exceeds the configured threshold (default
//!    [`DEFAULT_DRIFT_THRESHOLD`]), the entry is marked *suspect*. The
//!    service evicts the cached plan and auto-traces the next execution
//!    ([`FeedbackStore::wants_probe`]) to gather per-predicate actuals.
//! 3. **Re-optimize.** Once per-predicate overrides exist,
//!    [`FeedbackStore::overlay_for`] hands the service a
//!    [`StatsOverlay`] to re-optimize with. The overlay never mutates the
//!    catalog — epoch snapshots and the auditor's sound `[lo, hi]`
//!    intervals keep seeing the real statistics.
//!
//! Entries are keyed by canonical query fingerprint and pinned to the
//! stats epoch they were observed under; a statistics refresh retires
//! them ([`FeedbackStore::retire_older_than`]) because observations of
//! the old data distribution say nothing about the new one.

use oodb_algebra::{PhysicalOp, QueryEnv, StatsOverlay};
use oodb_verify::{drift_ratio, ActualNode};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Default drift threshold: estimates off by ≥ 10× in either direction
/// mark the plan suspect (the ratio the ROADMAP item names).
pub const DEFAULT_DRIFT_THRESHOLD: f64 = 10.0;

/// What [`FeedbackStore::observe_root`] concluded about one execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Observation {
    /// Estimate and actual agree within the threshold.
    InBounds,
    /// This observation pushed the fingerprint over the drift threshold:
    /// the cached plan should be evicted and the next execution probed.
    NewlySuspect,
    /// The fingerprint was already suspect (or already carries
    /// overrides); no new action needed beyond what is in flight.
    StillSuspect,
}

/// Per-fingerprint accumulated feedback.
#[derive(Clone, Debug)]
struct FpEntry {
    /// Stats epoch the observations were made under.
    stats_epoch: u64,
    /// Executions observed.
    execs: u64,
    /// Most recent root estimate.
    last_est: f64,
    /// Most recent root actual.
    last_actual: u64,
    /// Worst drift ratio seen at this epoch.
    worst_drift: f64,
    /// Whether drift crossed the threshold.
    suspect: bool,
    /// Per-predicate observed selectivities from traced probes.
    overlay: Option<Arc<StatsOverlay>>,
    /// Executions that ran on a plan re-optimized under the overlay.
    corrected_execs: u64,
}

impl FpEntry {
    fn fresh(epoch: u64) -> Self {
        FpEntry {
            stats_epoch: epoch,
            execs: 0,
            last_est: 0.0,
            last_actual: 0,
            worst_drift: 1.0,
            suspect: false,
            overlay: None,
            corrected_execs: 0,
        }
    }
}

/// A read-only view of one fingerprint's feedback state, for the CLI and
/// the server's `/stats` endpoint.
#[derive(Clone, Debug)]
pub struct FeedbackEntry {
    /// Canonical fingerprint hash.
    pub fingerprint: u64,
    /// Stats epoch the observations belong to.
    pub stats_epoch: u64,
    /// Executions observed.
    pub execs: u64,
    /// Most recent root estimate.
    pub last_est: f64,
    /// Most recent root actual row count.
    pub last_actual: u64,
    /// Worst drift ratio seen.
    pub worst_drift: f64,
    /// Whether the fingerprint is currently suspect.
    pub suspect: bool,
    /// Number of per-predicate overrides recorded.
    pub overrides: usize,
    /// Executions that ran on an overlay-corrected plan.
    pub corrected_execs: u64,
}

/// Aggregate counters over the whole store.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FeedbackStats {
    /// Fingerprints with any observations.
    pub tracked: u64,
    /// Fingerprints currently suspect.
    pub suspect: u64,
    /// Fingerprints carrying selectivity overrides.
    pub overridden: u64,
    /// Total overrides across all fingerprints.
    pub overrides: u64,
    /// Worst drift ratio currently tracked.
    pub worst_drift: f64,
}

/// Sharded accumulator of actual-vs-estimated cardinalities per query
/// fingerprint. All methods are `&self` and safe to call from many worker
/// threads; shard mutexes are poison-recovering like the rest of the
/// service layer.
#[derive(Debug)]
pub struct FeedbackStore {
    shards: Vec<Mutex<HashMap<u64, FpEntry>>>,
    threshold: f64,
    /// High-water stats epoch; observations older than it are ignored so
    /// a slow executor cannot resurrect retired feedback.
    latest_epoch: AtomicU64,
    /// Kill switch: when off, the store observes nothing and hands out no
    /// overlays. Exists so benchmarks can measure the loop's overhead
    /// against a true baseline and operators can disable it in the field.
    enabled: AtomicBool,
}

impl Default for FeedbackStore {
    fn default() -> Self {
        Self::new(DEFAULT_DRIFT_THRESHOLD)
    }
}

impl FeedbackStore {
    /// Creates a store with the given drift threshold (ratios at or above
    /// it mark a fingerprint suspect). Thresholds below 1 are clamped.
    pub fn new(threshold: f64) -> Self {
        let threshold = if threshold.is_finite() {
            threshold.max(1.0)
        } else {
            DEFAULT_DRIFT_THRESHOLD
        };
        FeedbackStore {
            shards: (0..8).map(|_| Mutex::new(HashMap::new())).collect(),
            threshold,
            latest_epoch: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
        }
    }

    /// The configured drift threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Turns the feedback loop on or off. Disabling does not drop already
    /// accumulated state; re-enabling resumes from it.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Release);
    }

    /// Whether the loop is currently observing and correcting.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    fn shard(&self, fp: u64) -> &Mutex<HashMap<u64, FpEntry>> {
        &self.shards[(fp as usize) % self.shards.len()]
    }

    fn lock(&self, fp: u64) -> std::sync::MutexGuard<'_, HashMap<u64, FpEntry>> {
        self.shard(fp)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Records the root-level actual row count of one execution — the
    /// cheap always-on sample that keeps feedback live on the untraced
    /// hot path. `corrected` marks executions of an overlay-re-optimized
    /// plan (their drift is tracked but does not re-trip the suspect
    /// ladder, which would loop forever on a genuinely skewed key).
    pub fn observe_root(
        &self,
        fp: u64,
        epoch: u64,
        estimated: f64,
        actual: u64,
        corrected: bool,
    ) -> Observation {
        if !self.is_enabled() {
            return Observation::InBounds;
        }
        if epoch < self.latest_epoch.fetch_max(epoch, Ordering::AcqRel) {
            return Observation::InBounds;
        }
        let mut shard = self.lock(fp);
        let e = shard.entry(fp).or_insert_with(|| FpEntry::fresh(epoch));
        if e.stats_epoch < epoch {
            *e = FpEntry::fresh(epoch);
        } else if e.stats_epoch > epoch {
            return Observation::InBounds;
        }
        e.execs += 1;
        e.last_est = estimated;
        e.last_actual = actual;
        let drift = drift_ratio(estimated, actual);
        e.worst_drift = e.worst_drift.max(drift);
        if corrected {
            e.corrected_execs += 1;
            return Observation::InBounds;
        }
        if drift < self.threshold {
            return Observation::InBounds;
        }
        if e.suspect || e.overlay.is_some() {
            Observation::StillSuspect
        } else {
            e.suspect = true;
            Observation::NewlySuspect
        }
    }

    /// Records per-predicate observed selectivities from a traced
    /// execution, given the nodes [`walk_actual`](oodb_verify::walk_actual)
    /// paired for it. Only suspect (or already-corrected) fingerprints
    /// record overrides; traces of in-bounds queries are diagnostics, not
    /// probes. Returns the number of overrides now recorded for the
    /// fingerprint.
    pub fn observe_trace(
        &self,
        fp: u64,
        epoch: u64,
        env: &QueryEnv,
        nodes: &[ActualNode<'_>],
    ) -> usize {
        if !self.is_enabled() {
            return 0;
        }
        if epoch < self.latest_epoch.fetch_max(epoch, Ordering::AcqRel) {
            return 0;
        }
        let mut shard = self.lock(fp);
        let e = shard.entry(fp).or_insert_with(|| FpEntry::fresh(epoch));
        if e.stats_epoch < epoch {
            *e = FpEntry::fresh(epoch);
        } else if e.stats_epoch > epoch {
            return 0;
        }
        // Traces only act as probes for fingerprints the ladder already
        // flagged (or is keeping corrected). For an in-bounds query,
        // `EXPLAIN ANALYZE` is diagnostics — recording overrides would
        // re-key and evict a perfectly good cached plan.
        if !e.suspect && e.overlay.is_none() {
            return 0;
        }
        let mut overlay = StatsOverlay::new();
        for (key, sel) in nodes.iter().filter_map(|n| observed(env, n)) {
            overlay.set(key, sel);
        }
        if !overlay.is_empty() {
            e.overlay = Some(Arc::new(overlay));
        }
        e.overlay.as_ref().map_or(0, |o| o.len())
    }

    /// The selectivity overlay to re-optimize a suspect fingerprint with,
    /// if per-predicate observations exist at this epoch.
    pub fn overlay_for(&self, fp: u64, epoch: u64) -> Option<Arc<StatsOverlay>> {
        if !self.is_enabled() {
            return None;
        }
        let shard = self.lock(fp);
        let e = shard.get(&fp)?;
        if e.stats_epoch != epoch {
            return None;
        }
        e.overlay.clone()
    }

    /// True when the next execution of this fingerprint should run traced
    /// even though the caller didn't ask for profiling: the plan is
    /// suspect and no per-predicate observations exist yet.
    pub fn wants_probe(&self, fp: u64) -> bool {
        if !self.is_enabled() {
            return false;
        }
        let shard = self.lock(fp);
        shard
            .get(&fp)
            .is_some_and(|e| e.suspect && e.overlay.is_none())
    }

    /// Drops every entry observed under a stats epoch older than `epoch`
    /// — statistics were refreshed, so old-distribution feedback (and any
    /// suspect markers) no longer applies. Called by the service on every
    /// epoch-bumping mutation.
    pub fn retire_older_than(&self, epoch: u64) {
        self.latest_epoch.fetch_max(epoch, Ordering::AcqRel);
        for shard in &self.shards {
            let mut s = shard.lock().unwrap_or_else(PoisonError::into_inner);
            s.retain(|_, e| e.stats_epoch >= epoch);
        }
    }

    /// Forgets all accumulated feedback (CLI `\feedback clear`).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap_or_else(PoisonError::into_inner).clear();
        }
    }

    /// Aggregate counters.
    pub fn stats(&self) -> FeedbackStats {
        let mut out = FeedbackStats {
            worst_drift: 1.0,
            ..FeedbackStats::default()
        };
        for shard in &self.shards {
            let s = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for e in s.values() {
                out.tracked += 1;
                if e.suspect {
                    out.suspect += 1;
                }
                if let Some(o) = &e.overlay {
                    out.overridden += 1;
                    out.overrides += o.len() as u64;
                }
                out.worst_drift = out.worst_drift.max(e.worst_drift);
            }
        }
        out
    }

    /// A snapshot of every tracked fingerprint, worst drift first.
    pub fn snapshot(&self) -> Vec<FeedbackEntry> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let s = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for (fp, e) in s.iter() {
                out.push(FeedbackEntry {
                    fingerprint: *fp,
                    stats_epoch: e.stats_epoch,
                    execs: e.execs,
                    last_est: e.last_est,
                    last_actual: e.last_actual,
                    worst_drift: e.worst_drift,
                    suspect: e.suspect,
                    overrides: e.overlay.as_ref().map_or(0, |o| o.len()),
                    corrected_execs: e.corrected_execs,
                });
            }
        }
        out.sort_by(|a, b| {
            b.worst_drift
                .total_cmp(&a.worst_drift)
                .then(a.fingerprint.cmp(&b.fingerprint))
        });
        out
    }
}

/// The observed selectivity of one operator's predicate, keyed for the
/// overlay: rows out over rows in, for filters, index scans and joins.
fn observed(env: &QueryEnv, node: &ActualNode<'_>) -> Option<(String, f64)> {
    let rows = |i: usize| node.trace.children.get(i).map(|t| t.actual_rows as f64);
    let (pred, input) = match &node.plan.op {
        PhysicalOp::Filter { pred } => (*pred, rows(0)?),
        PhysicalOp::IndexScan { index, pred, .. } if !env.preds.pred(*pred).terms.is_empty() => {
            let coll = env.catalog.index(*index).collection;
            (*pred, env.catalog.collection(coll).cardinality as f64)
        }
        // Relative to the cross product, the convention `join_card` consumes.
        PhysicalOp::HybridHashJoin { pred } | PhysicalOp::MergeJoin { pred } => {
            (*pred, rows(0)? * rows(1)?)
        }
        // A pointer join's target side has no trace child (references are
        // resolved inline), so its cross product is unknowable here; its
        // reference-equality estimate is domain-driven, not
        // selectivity-driven, and is left to the catalog.
        _ => return None,
    };
    let key = || oodb_algebra::overlay::pred_key(env, env.preds.pred(pred));
    (input > 0.0).then(|| (key(), node.trace.actual_rows as f64 / input))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suspect_ladder_fires_once_per_epoch() {
        let fb = FeedbackStore::new(10.0);
        assert_eq!(
            fb.observe_root(1, 0, 100.0, 120, false),
            Observation::InBounds
        );
        assert!(!fb.wants_probe(1));
        assert_eq!(
            fb.observe_root(1, 0, 100.0, 5000, false),
            Observation::NewlySuspect
        );
        assert!(fb.wants_probe(1));
        assert_eq!(
            fb.observe_root(1, 0, 100.0, 5000, false),
            Observation::StillSuspect
        );
        // A stats refresh retires the entry: no stale suspect marker.
        fb.retire_older_than(1);
        assert!(!fb.wants_probe(1));
        assert_eq!(fb.stats().tracked, 0);
        // Fresh observations at the new epoch start clean.
        assert_eq!(
            fb.observe_root(1, 1, 100.0, 5000, false),
            Observation::NewlySuspect
        );
    }

    #[test]
    fn stale_epoch_observations_are_ignored() {
        let fb = FeedbackStore::default();
        assert_eq!(
            fb.observe_root(9, 5, 1.0, 1000, false),
            Observation::NewlySuspect
        );
        // An old-epoch straggler must not resurrect or mutate anything.
        assert_eq!(
            fb.observe_root(9, 4, 1.0, 1000, false),
            Observation::InBounds
        );
        let snap = fb.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].stats_epoch, 5);
        assert_eq!(snap[0].execs, 1);
    }

    #[test]
    fn kill_switch_silences_the_store_without_dropping_state() {
        let fb = FeedbackStore::new(10.0);
        assert_eq!(
            fb.observe_root(4, 0, 1.0, 500, false),
            Observation::NewlySuspect
        );
        fb.set_enabled(false);
        assert!(!fb.is_enabled());
        assert_eq!(
            fb.observe_root(4, 0, 1.0, 500, false),
            Observation::InBounds
        );
        assert!(!fb.wants_probe(4));
        assert!(fb.overlay_for(4, 0).is_none());
        // State survives: re-enabling resumes the ladder where it was.
        fb.set_enabled(true);
        assert!(fb.wants_probe(4));
        assert_eq!(fb.snapshot()[0].execs, 1);
    }

    #[test]
    fn corrected_executions_do_not_retrip_the_ladder() {
        let fb = FeedbackStore::new(10.0);
        assert_eq!(
            fb.observe_root(3, 0, 1.0, 500, false),
            Observation::NewlySuspect
        );
        // Post-re-optimization runs carry `corrected`; even if the better
        // plan still shows drift vs its estimate, the ladder stays quiet.
        assert_eq!(fb.observe_root(3, 0, 1.0, 500, true), Observation::InBounds);
        assert_eq!(fb.snapshot()[0].corrected_execs, 1);
    }
}
