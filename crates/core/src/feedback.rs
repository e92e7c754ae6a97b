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
//!    ([`drift_ratio`]) reaches [`DRIFT_THRESHOLD`], the entry is marked
//!    *suspect*. The
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
use oodb_sync::BoundedMap;
use oodb_verify::{drift_ratio, ActualNode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The drift threshold: estimates off by ≥ 10× in either direction mark
/// the plan suspect (the ratio the ROADMAP item names).
pub const DRIFT_THRESHOLD: f64 = 10.0;

/// The most fingerprints the ledger tracks (and a metrics scrape walks),
/// `SHARDS` shards of an equal share each. A full shard evicts its least
/// recently observed fingerprint that is not the ladder's work.
pub const MAX_TRACKED: usize = 4096;
const SHARDS: usize = 8;

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

/// One fingerprint's accumulated feedback: the ledger's entry, and the
/// read-only view the CLI and the server's `/stats` endpoint get.
#[derive(Clone, Debug, Default)]
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
    /// Worst drift ratio seen at this epoch.
    pub worst_drift: f64,
    /// Whether the fingerprint is currently suspect.
    pub suspect: bool,
    /// Number of per-predicate overrides recorded.
    pub overrides: usize,
    /// Executions that ran on an overlay-corrected plan.
    pub corrected_execs: u64,
    /// Per-predicate observed selectivities from traced probes.
    overlay: Option<Arc<StatsOverlay>>,
}

impl FeedbackEntry {
    fn fresh(fingerprint: u64, stats_epoch: u64) -> Self {
        let worst_drift = 1.0;
        FeedbackEntry {
            fingerprint,
            stats_epoch,
            worst_drift,
            ..Default::default()
        }
    }
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
/// fingerprint: an evict-LRU [`BoundedMap`] that never evicts a suspect
/// or overridden entry. All methods are `&self` and safe to call from
/// many worker threads.
#[derive(Debug)]
pub struct FeedbackStore {
    ledger: BoundedMap<u64, FeedbackEntry>,
    /// High-water stats epoch; observations older than it are ignored so
    /// a slow executor cannot resurrect retired feedback.
    latest_epoch: AtomicU64,
}

impl Default for FeedbackStore {
    fn default() -> Self {
        FeedbackStore {
            ledger: BoundedMap::evict_lru(MAX_TRACKED, SHARDS, |&fp| fp)
                .protecting(|e| e.suspect || e.overlay.is_some()),
            latest_epoch: AtomicU64::new(0),
        }
    }
}

impl FeedbackStore {
    /// Records the root-level actual row count of one execution — the
    /// cheap always-on sample that keeps feedback live on the untraced
    /// hot path. `corrected` marks executions of an overlay-re-optimized
    /// plan (their drift is tracked but does not re-trip the suspect
    /// ladder, which would loop forever on a genuinely skewed key). A
    /// newcomer to a shard full of the ladder's work goes untracked.
    pub fn observe_root(
        &self,
        fp: u64,
        epoch: u64,
        estimated: f64,
        actual: u64,
        corrected: bool,
    ) -> Observation {
        if epoch < self.latest_epoch.fetch_max(epoch, Ordering::AcqRel) {
            return Observation::InBounds;
        }
        let observe = |e: &mut FeedbackEntry, _| {
            if e.stats_epoch < epoch {
                *e = FeedbackEntry::fresh(fp, epoch);
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
            if drift < DRIFT_THRESHOLD {
                return Observation::InBounds;
            }
            if e.suspect || e.overlay.is_some() {
                Observation::StillSuspect
            } else {
                e.suspect = true;
                Observation::NewlySuspect
            }
        };
        self.ledger
            .get_or_insert_with(fp, || FeedbackEntry::fresh(fp, epoch), observe)
            .unwrap_or(Observation::InBounds)
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
        if epoch < self.latest_epoch.fetch_max(epoch, Ordering::AcqRel) {
            return 0;
        }
        // Traces only act as probes for fingerprints the ladder already
        // flagged at this epoch (or is keeping corrected). For an
        // in-bounds query, `EXPLAIN ANALYZE` is diagnostics — recording
        // overrides would re-key and evict a perfectly good cached plan.
        let record = |e: &mut FeedbackEntry| {
            if e.stats_epoch != epoch || !(e.suspect || e.overlay.is_some()) {
                return None;
            }
            let mut overlay = StatsOverlay::new();
            for (key, sel) in nodes.iter().filter_map(|n| observed(env, n)) {
                overlay.set(key, sel);
            }
            if !overlay.is_empty() {
                e.overrides = overlay.len();
                e.overlay = Some(Arc::new(overlay));
            }
            Some(e.overrides)
        };
        self.ledger.get(&fp, record).unwrap_or(0)
    }

    /// The selectivity overlay to re-optimize a suspect fingerprint with,
    /// if per-predicate observations exist at this epoch.
    pub fn overlay_for(&self, fp: u64, epoch: u64) -> Option<Arc<StatsOverlay>> {
        let current = |e: &mut FeedbackEntry| (e.stats_epoch == epoch).then(|| e.overlay.clone());
        self.ledger.get(&fp, current).flatten()
    }

    /// True when the next execution of this fingerprint should run traced
    /// even though the caller didn't ask for profiling: the plan is
    /// suspect and no per-predicate observations exist yet.
    pub fn wants_probe(&self, fp: u64) -> bool {
        let probe = |e: &mut FeedbackEntry| (e.suspect && e.overlay.is_none()).then_some(());
        self.ledger.get(&fp, probe).is_some()
    }

    /// Drops every entry observed under a stats epoch older than `epoch`
    /// — statistics were refreshed, so old-distribution feedback (and any
    /// suspect markers) no longer applies. Called by the service on every
    /// epoch-bumping mutation.
    pub fn retire_older_than(&self, epoch: u64) {
        self.latest_epoch.fetch_max(epoch, Ordering::AcqRel);
        self.ledger.retain(|_, e| e.stats_epoch >= epoch);
    }

    /// Forgets all accumulated feedback (CLI `\feedback clear`).
    pub fn clear(&self) {
        self.ledger.clear();
    }

    /// Aggregate counters.
    pub fn stats(&self) -> FeedbackStats {
        let mut out = FeedbackStats {
            worst_drift: 1.0,
            ..FeedbackStats::default()
        };
        self.ledger.for_each(|_, e| {
            out.tracked += 1;
            if e.suspect {
                out.suspect += 1;
            }
            if e.overlay.is_some() {
                out.overridden += 1;
                out.overrides += e.overrides as u64;
            }
            out.worst_drift = out.worst_drift.max(e.worst_drift);
        });
        out
    }

    /// A snapshot of every tracked fingerprint, worst drift first.
    pub fn snapshot(&self) -> Vec<FeedbackEntry> {
        let mut out = Vec::new();
        self.ledger.for_each(|_, e| out.push(e.clone()));
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
        let fb = FeedbackStore::default();
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

    /// Fills the ledger past its cap with in-bounds fingerprints after one
    /// suspect per shard.
    fn overfilled() -> FeedbackStore {
        let fb = FeedbackStore::default();
        for fp in 0..SHARDS as u64 {
            fb.observe_root(fp, 0, 1.0, 1000, false);
        }
        for fp in 100..100 + MAX_TRACKED as u64 + 1000 {
            fb.observe_root(fp, 0, 100.0, 100, false);
        }
        fb
    }

    #[test]
    fn the_ledger_stays_under_its_cap_and_keeps_its_suspects() {
        let fb = overfilled();
        assert!(fb.stats().tracked <= MAX_TRACKED as u64);
        assert_eq!(fb.stats().suspect, SHARDS as u64);
        assert!((0..SHARDS as u64).all(|fp| fb.wants_probe(fp)));
    }

    #[test]
    fn a_drifting_newcomer_to_a_full_ledger_is_still_suspect() {
        let fb = overfilled();
        let newcomer = 1 << 40;
        assert_eq!(
            fb.observe_root(newcomer, 0, 1.0, 1000, false),
            Observation::NewlySuspect
        );
        assert!(fb.wants_probe(newcomer));
        assert!(fb.stats().tracked <= MAX_TRACKED as u64);
    }

    /// A full shard evicts its least recently observed fingerprint: one
    /// re-observed throughout an overfill keeps its history.
    #[test]
    fn a_hot_fingerprint_survives_an_overfilled_shard() {
        let fb = FeedbackStore::default();
        let hot = SHARDS as u64;
        for i in 1..=(MAX_TRACKED as u64) {
            fb.observe_root(hot, 0, 100.0, 100, false);
            fb.observe_root(hot + i * SHARDS as u64, 0, 100.0, 100, false);
        }
        let hot = fb.snapshot().into_iter().find(|e| e.fingerprint == hot);
        assert_eq!(hot.map(|e| e.execs), Some(MAX_TRACKED as u64));
        assert!(fb.stats().tracked <= (MAX_TRACKED / SHARDS) as u64);
    }

    #[test]
    fn corrected_executions_do_not_retrip_the_ladder() {
        let fb = FeedbackStore::default();
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
