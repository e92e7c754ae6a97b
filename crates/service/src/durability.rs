//! How the service's state changes: one publish path ([`QueryService::mutate`]),
//! the logged mutators built on it, and the WAL-session wrappers.
//!
//! A logged mutator says what it does as [`WalRecord`]s. The records are
//! appended to the session, then applied to the store being published by
//! [`oodb_wal::apply_to`] — the function recovery replays them through, so
//! a recovered store equals the live one by construction.

use crate::{DurabilityStats, QueryService, ServiceState};
use oodb_core::{CostParams, OptimizerConfig};
use oodb_storage::Store;
use oodb_wal::{CheckpointStats, FlushPolicy, RecoveryReport, WalError, WalRecord, WalSession};
use std::path::Path;
use std::sync::MutexGuard;

impl QueryService {
    /// Publishes a new snapshot: the current one with `change` applied.
    /// Serialized with every other mutator by the snapshot cell's writer
    /// lock, so concurrent reconfigurations never lose each other's
    /// changes; a reader sees all of `change` or none of it. Returns
    /// whether `change` moved the statistics epoch.
    pub(crate) fn mutate(&self, change: impl FnOnce(&mut ServiceState)) -> bool {
        let (was, now) = self.inner.state.update(|s| {
            let mut next = s.clone();
            change(&mut next);
            next.index_set = next.store.catalog().index_set_hash();
            let epochs = (s.epoch(), next.epoch());
            (next, epochs)
        });
        // Feedback recorded under an older stats epoch described a
        // distribution that no longer exists; retire it (and its suspect
        // markers) the moment the epoch moves.
        let moved = now != was;
        if moved {
            self.inner.feedback.retire_older_than(now);
        }
        moved
    }

    /// Log-then-apply: appends the records `describe` derives from the
    /// current store, then publishes a snapshot with them (and `also`)
    /// applied. The durability lock is held across both, so log order is
    /// apply order and the store `describe` reads has the catalog the
    /// records will meet — every catalog change takes this lock.
    ///
    /// An append failure (injected write fault, full disk) poisons the
    /// session rather than blocking the mutation: the in-memory state
    /// moves on, the mutation is simply not acknowledged durable, and
    /// [`DurabilityStats::poisoned`] reports the degradation. Returns
    /// whether the statistics epoch moved.
    fn log_and_apply(
        &self,
        describe: impl FnOnce(&Store) -> Vec<WalRecord>,
        also: impl FnOnce(&mut ServiceState),
    ) -> bool {
        let mut dur = self.durability_lock();
        let records = describe(&self.store());
        if let Some(session) = dur.as_mut() {
            for rec in &records {
                let _ = session.append(rec);
            }
        }
        self.mutate(|s| {
            for rec in &records {
                // A record this process just built from its own store
                // fails to apply only if that store is corrupt.
                oodb_wal::apply_to(s.store_mut(), rec)
                    .unwrap_or_else(|e| panic!("logged {} did not apply: {e}", rec.kind()));
            }
            also(s);
        })
    }

    /// Collects histograms at `buckets` buckets and publishes them. Only a
    /// refresh that changes a histogram bumps the `stats_epoch` — once —
    /// and so re-optimizes cached plans and retires feedback; over
    /// unchanged data every cached plan and the feedback ledger stay.
    /// Returns whether the epoch moved. With durability on, the refresh
    /// is logged before it is applied, changed or not; WAL replay runs the
    /// same record through the same function, so the recovered catalog
    /// matches bucket for bucket and lands on the same epoch.
    pub fn refresh_statistics(&self, buckets: usize) -> bool {
        self.log_and_apply(|_| vec![stats_refresh(buckets)], |_| {})
    }

    /// Replaces statistics *and* configuration in one snapshot swap: a
    /// reader either sees both changes or neither. This is the mutation
    /// the concurrency proof drives while submissions race it. The epoch
    /// rule is [`QueryService::refresh_statistics`]'s.
    pub fn refresh_statistics_with_config(&self, buckets: usize, config: OptimizerConfig) {
        self.log_and_apply(|_| vec![stats_refresh(buckets)], |s| s.set_config(config));
    }

    /// Drops every index not named in `keep` (physical-design change) and
    /// swaps in the rebuilt store. The epoch bump makes every cached plan
    /// unservable, so a plan relying on a dropped index can never run.
    pub fn restrict_indexes(&self, keep: &[&str]) {
        let describe = |store: &Store| {
            let catalog = store.catalog().with_only_indexes(keep);
            vec![
                WalRecord::SetCatalog { catalog },
                WalRecord::BuildIndexes { bump_epoch: true },
            ]
        };
        self.log_and_apply(describe, |_| {});
    }

    pub(crate) fn durability_lock(&self) -> MutexGuard<'_, Option<WalSession>> {
        oodb_sync::lock(&self.inner.durability)
    }

    /// Rebuilds a service from a durability directory — checkpoint, then
    /// the longest valid log prefix — and resumes logging into it (the
    /// recovered state is folded into a fresh checkpoint, so the log
    /// restarts empty). Returns the service plus what recovery found.
    pub fn recover(
        dir: &Path,
        params: CostParams,
        config: OptimizerConfig,
        cache_capacity: usize,
        cache_shards: usize,
        policy: FlushPolicy,
    ) -> Result<(QueryService, RecoveryReport), WalError> {
        let (store, report) = oodb_wal::recover(dir)?;
        let svc = QueryService::new(store, params, config, cache_capacity, cache_shards);
        svc.inner
            .metrics
            .recovery_replayed
            .add(report.replayed_records);
        if report.torn_tail_bytes > 0 {
            svc.inner.metrics.wal_torn_tails.inc();
        }
        svc.enable_durability(dir, policy)?;
        Ok((svc, report))
    }

    /// Switches durability on: checkpoints the current store into `dir`
    /// and opens a fresh log there. Subsequent statistics and
    /// physical-design mutations are logged before they are applied.
    /// Idempotent per directory — re-enabling replaces the session (the
    /// old one flushes on drop via its final checkpoint already on disk).
    pub fn enable_durability(&self, dir: &Path, policy: FlushPolicy) -> Result<(), WalError> {
        let mut dur = self.durability_lock();
        let session = WalSession::create(dir, &self.store(), policy, None)?;
        *dur = Some(session);
        Ok(())
    }

    /// Switches durability off, flushing buffered records first. Returns
    /// whether a session was active.
    pub fn disable_durability(&self) -> bool {
        let mut dur = self.durability_lock();
        let Some(mut session) = dur.take() else {
            return false;
        };
        let _ = session.flush();
        true
    }

    /// Forces buffered WAL records to disk (`FlushPolicy::Batch`/`Manual`
    /// sessions; a no-op under `EveryRecord`).
    pub fn flush_wal(&self) -> Option<Result<(), WalError>> {
        self.durability_lock().as_mut().map(WalSession::flush)
    }

    /// Compacts the log into a fresh checkpoint of the current store.
    /// Mutators are blocked for the duration, so the checkpoint can never
    /// miss a logged-but-unapplied record.
    pub fn checkpoint_wal(&self) -> Option<Result<CheckpointStats, WalError>> {
        let mut dur = self.durability_lock();
        let store = self.store();
        dur.as_mut().map(|s| s.checkpoint(&store))
    }

    /// A snapshot of the WAL session's counters, or `None` with
    /// durability off.
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        self.durability_lock().as_ref().map(WalSession::stats)
    }
}

fn stats_refresh(buckets: usize) -> WalRecord {
    WalRecord::StatsRefresh {
        buckets: buckets as u32,
    }
}
