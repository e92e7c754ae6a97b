//! A sharded, statistics-epoch-aware plan cache.
//!
//! Industrial optimizers survive OLTP-scale query rates by *amortizing*
//! optimization: the transformation-based search this crate implements is
//! exactly the cost worth paying once and reusing. The paper's "<1 s
//! optimization time" claim becomes "<1 µs on a cache hit".
//!
//! Design:
//!
//! * **Key** — `(query fingerprint, rule-config fingerprint, stats epoch,
//!   index-set hash, overlay fingerprint)`. The query fingerprint is the
//!   canonical structural hash of [`oodb_algebra::fingerprint()`]; the full
//!   structural key is stored in the entry and compared on every hit, so
//!   a 64-bit collision costs a spurious miss, never a wrong plan. The
//!   overlay term is the feedback loop's selectivity corrections (0 for
//!   none).
//! * **Invalidation is lazy** — a statistics collection that changed a
//!   histogram, `Store::build_indexes`, and `Store::set_catalog` bump the
//!   catalog's monotonic `stats_epoch`; lookups under the new epoch simply
//!   miss, and the stale entries age out of the LRU. Nothing walks the
//!   cache. A refresh that collects the histograms the catalog already
//!   holds keeps the epoch, so every entry stays servable.
//! * **Sharding** — an evict-LRU [`BoundedMap`] whose shards are selected
//!   by fingerprint, so concurrent workers rarely contend on one lock,
//!   and whose per-shard shares sum to exactly the capacity.
//! * **Self-contained entries** — a cached [`PhysicalPlan`]'s `PredId` /
//!   `VarId` values are indices into the [`QueryEnv`] that existed when it
//!   was optimized; a fresh parse of the same text may intern differently.
//!   Every entry therefore carries its own `QueryEnv`, and hits execute
//!   against the *stored* environment, never the caller's. The entry owns
//!   that env's scopes and predicates; its schema and catalog are shared
//!   copy-on-write handles onto the snapshot the plan was optimized
//!   under, so evicting an entry frees only what it owns, and a later
//!   statistics refresh or catalog swap never reaches into it.

use crate::cost::Cost;
use oodb_algebra::{PhysicalPlan, QueryEnv, QueryFingerprint, VarSet};
use oodb_sync::BoundedMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Full cache key: everything that must match for a cached plan to be
/// valid for a lookup.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    /// Canonical query fingerprint hash ([`oodb_algebra::fingerprint()`]).
    pub fingerprint: u64,
    /// [`crate::OptimizerConfig::fingerprint`] of the rule configuration.
    pub config: u64,
    /// The catalog's statistics epoch at optimization time.
    pub stats_epoch: u64,
    /// The catalog's index-set hash.
    pub index_set: u64,
    /// Fingerprint of the [`oodb_algebra::StatsOverlay`] the plan was
    /// optimized under — zero for catalog-only plans. Without this, a
    /// plan re-optimized with feedback overrides would be served to the
    /// un-overlayed world after `\feedback clear` (and vice versa): the
    /// stats epoch alone cannot see overlay changes, which happen without
    /// touching the catalog.
    pub overlay: u64,
}

impl CacheKey {
    /// Key for a single statically chosen plan. `overlay` is the
    /// fingerprint of the selectivity overlay in force (0 = none).
    pub fn static_plan(
        fp: &QueryFingerprint,
        config: u64,
        stats_epoch: u64,
        index_set: u64,
        overlay: u64,
    ) -> Self {
        CacheKey {
            fingerprint: fp.hash,
            config,
            stats_epoch,
            index_set,
            overlay,
        }
    }
}

/// What a cache entry holds. Still an enum, with one variant, because
/// `benchmark/src/layers.rs` — frozen outside benchmark-only changes —
/// constructs and matches on it.
#[derive(Clone, Debug)]
pub enum CachedBody {
    /// The winning plan and its estimated cost.
    Static {
        /// The winning physical plan.
        plan: PhysicalPlan,
        /// Its estimated cost.
        cost: Cost,
    },
}

/// A self-contained cached entry: the environment the plan's interned ids
/// refer to, the full structural key (collision guard), and the plan(s).
#[derive(Clone, Debug)]
pub struct CachedPlan {
    /// Full canonical structural key — compared on every hash hit.
    pub structural: String,
    /// The query environment captured at optimization time. The plan's
    /// `PredId`/`VarId` values index into *this* env, not the caller's.
    pub env: QueryEnv,
    /// The query's result variables, as ids into `env` — rendering must
    /// project these (different plans bind different auxiliary vars).
    pub result_vars: VarSet,
    /// The cached plan.
    pub body: CachedBody,
}

impl CachedPlan {
    /// Approximate resident bytes of this entry: the structural key, the
    /// scope and predicate arenas it owns, and every plan node. The
    /// schema and catalog are not counted: they are shared with the store
    /// and every other entry planned under the same snapshot. The
    /// constants are coarse — the point is that entries differ in size by
    /// their query's scopes, predicates and plan, which the entry-count
    /// LRU alone cannot see, so the byte cap must track the same shape.
    pub fn approx_bytes(&self) -> usize {
        const BASE: usize = 256;
        const SCOPE_BYTES: usize = 128;
        const PRED_BYTES: usize = 192;
        const NODE_BYTES: usize = 160;
        let CachedBody::Static { plan, .. } = &self.body;
        BASE + self.structural.len()
            + self.env.scopes.len() * SCOPE_BYTES
            + self.env.preds.len() * PRED_BYTES
            + plan.iter_ops().len() * NODE_BYTES
    }
}

/// Counters exposed by [`PlanCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned an entry.
    pub hits: u64,
    /// Lookups that found nothing valid.
    pub misses: u64,
    /// Entries displaced by the LRU policy.
    pub evictions: u64,
    /// Inserts refused because the entry's statistics epoch was already
    /// superseded when the optimizer finished (the optimize-during-
    /// epoch-bump race).
    pub stale_rejects: u64,
    /// Inserts refused because the static verifier found the plan
    /// malformed — a corrupt plan is never cached, so never served.
    pub verify_rejects: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Approximate resident bytes across all entries (see
    /// [`CachedPlan::approx_bytes`]).
    pub bytes: usize,
}

impl CacheStats {
    /// Hits over total lookups (0.0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The sharded LRU plan cache. Cheap to share: clone an `Arc<PlanCache>`.
#[derive(Debug)]
pub struct PlanCache {
    map: BoundedMap<CacheKey, Arc<CachedPlan>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Highest statistics epoch this cache has ever observed (from lookup
    /// keys and [`PlanCache::note_epoch`]). Inserts under an older epoch
    /// are refused: such entries could only ever miss, and would pin a
    /// stale environment in the LRU until displaced.
    latest_epoch: AtomicU64,
    stale_rejects: AtomicU64,
    verify_rejects: AtomicU64,
}

impl PlanCache {
    /// Default byte budget for [`PlanCache::new`]: generous enough that
    /// entry-count LRU remains the binding limit for typical workloads,
    /// tight enough that a cache of pathological mega-queries cannot grow
    /// without bound.
    pub const DEFAULT_BYTE_CAP: usize = 16 << 20;

    /// A cache holding at most `capacity` entries across `shards` shards
    /// (an evict-LRU [`BoundedMap`]), with the default
    /// [`PlanCache::DEFAULT_BYTE_CAP`] byte budget.
    pub fn new(capacity: usize, shards: usize) -> Self {
        PlanCache::with_byte_cap(capacity, shards, PlanCache::DEFAULT_BYTE_CAP)
    }

    /// As [`PlanCache::new`], but with an explicit resident-byte budget
    /// (floored at 1 byte, split evenly across shards). Whichever limit
    /// binds first — entry count or approximate bytes — drives LRU
    /// eviction.
    pub fn with_byte_cap(capacity: usize, shards: usize, max_bytes: usize) -> Self {
        PlanCache {
            // Fingerprints are FNV-hashed already; low bits are well mixed.
            map: BoundedMap::evict_lru(capacity, shards, |k: &CacheKey| k.fingerprint)
                .with_weight_cap(max_bytes, |e| e.approx_bytes()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            latest_epoch: AtomicU64::new(0),
            stale_rejects: AtomicU64::new(0),
            verify_rejects: AtomicU64::new(0),
        }
    }

    /// Looks up an entry. `structural` is the full canonical key of the
    /// query being looked up; a hash match with a different structural key
    /// is a collision and reported as a miss.
    pub fn get(&self, key: &CacheKey, structural: &str) -> Option<Arc<CachedPlan>> {
        self.latest_epoch
            .fetch_max(key.stats_epoch, Ordering::Relaxed);
        let found = self
            .map
            .get(key, |e| (e.structural == structural).then(|| Arc::clone(e)));
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Advances the cache's view of the catalog's statistics epoch. Call
    /// with the *current* epoch just before [`PlanCache::insert`]: if
    /// statistics were recollected while the optimizer ran, the insert is
    /// refused instead of caching a plan that can only ever miss.
    pub fn note_epoch(&self, epoch: u64) {
        self.latest_epoch.fetch_max(epoch, Ordering::Relaxed);
    }

    /// Inserts (or replaces) an entry, evicting least-recently-used slots
    /// of the shard while it is over its entry or byte limit (a single
    /// entry over the whole shard budget still lands alone). Returns
    /// `false` (and counts the rejection) when the entry is refused:
    ///
    /// * its `stats_epoch` is older than the newest epoch the cache has
    ///   seen — the optimize-during-epoch-bump race — or
    /// * the static verifier ([`oodb_verify`]) finds the plan malformed,
    ///   so a corrupt plan can never be served.
    pub fn insert(&self, key: CacheKey, entry: Arc<CachedPlan>) -> bool {
        let seen = self
            .latest_epoch
            .fetch_max(key.stats_epoch, Ordering::Relaxed);
        if key.stats_epoch < seen {
            self.stale_rejects.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        if !verify_entry(&entry) {
            self.verify_rejects.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.map.insert(key, entry)
    }

    /// Removes one entry — the feedback ladder's *suspect eviction*: a
    /// plan whose estimates drifted past the threshold must stop being
    /// served immediately, not age out of the LRU. Returns `true` when an
    /// entry was resident under the key.
    pub fn remove(&self, key: &CacheKey) -> bool {
        self.map.remove(key)
    }

    /// Drops every entry (counters are preserved).
    pub fn clear(&self) {
        self.map.clear();
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate resident bytes across all shards.
    pub fn resident_bytes(&self) -> usize {
        self.map.weight()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.map.evictions(),
            stale_rejects: self.stale_rejects.load(Ordering::Relaxed),
            verify_rejects: self.verify_rejects.load(Ordering::Relaxed),
            entries: self.len(),
            bytes: self.resident_bytes(),
        }
    }
}

/// Static verification of an entry against its own captured environment.
/// Root requirements are unknown at this layer (they live with the
/// caller's goal), so only internal consistency is checked: shape, scoping,
/// link types, enforcer placement, and cost sanity.
fn verify_entry(entry: &CachedPlan) -> bool {
    let CachedBody::Static { plan, .. } = &entry.body;
    oodb_verify::verify_physical(&entry.env, plan, oodb_algebra::PhysProps::NONE).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_object::paper::paper_model;

    /// A minimal *well-formed* entry: a bare file scan of Cities. Inserts
    /// are verified, so test entries must pass the linter.
    fn dummy_entry(structural: &str) -> Arc<CachedPlan> {
        let m = paper_model();
        let cities = m.ids.cities;
        let card = m.catalog.collection(cities).cardinality as f64;
        let mut qb = oodb_algebra::QueryBuilder::new(m.schema, m.catalog);
        let (_, c) = qb.get(cities, "c");
        Arc::new(CachedPlan {
            structural: structural.to_string(),
            env: qb.into_env(),
            result_vars: VarSet::single(c),
            body: CachedBody::Static {
                plan: PhysicalPlan {
                    op: oodb_algebra::PhysicalOp::FileScan {
                        coll: cities,
                        var: c,
                    },
                    children: vec![],
                    est: oodb_algebra::PlanEst {
                        out_card: card,
                        io_s: 0.1,
                        cpu_s: 0.01,
                    },
                },
                cost: Cost::ZERO,
            },
        })
    }

    /// A malformed entry: a filter with no inputs whose predicate id
    /// dangles into an empty arena — the shape a rule bug could produce.
    fn corrupt_entry(structural: &str) -> Arc<CachedPlan> {
        let m = paper_model();
        let qb = oodb_algebra::QueryBuilder::new(m.schema, m.catalog);
        Arc::new(CachedPlan {
            structural: structural.to_string(),
            env: qb.into_env(),
            result_vars: VarSet::default(),
            body: CachedBody::Static {
                plan: PhysicalPlan {
                    op: oodb_algebra::PhysicalOp::Filter {
                        pred: oodb_algebra::PredId::from_index(0),
                    },
                    children: vec![],
                    est: oodb_algebra::PlanEst {
                        out_card: 0.0,
                        io_s: 0.0,
                        cpu_s: 0.0,
                    },
                },
                cost: Cost::ZERO,
            },
        })
    }

    fn key(fp: u64, epoch: u64) -> CacheKey {
        CacheKey {
            fingerprint: fp,
            config: 1,
            stats_epoch: epoch,
            index_set: 2,
            overlay: 0,
        }
    }

    #[test]
    fn hit_miss_and_structural_guard() {
        let cache = PlanCache::new(16, 4);
        let k = key(42, 0);
        assert!(cache.get(&k, "q").is_none());
        cache.insert(k, dummy_entry("q"));
        assert!(cache.get(&k, "q").is_some());
        // Same hash, different structure: collision → miss, never a plan.
        assert!(cache.get(&k, "другой").is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 1));
    }

    #[test]
    fn overlay_fingerprint_partitions_the_key_space() {
        // A plan optimized under a feedback overlay must never be served
        // to a lookup without it (or with a different one), and clearing
        // feedback (overlay back to 0) must not resurrect the overlayed
        // plan — same fingerprint, config, epoch, and index set.
        let cache = PlanCache::new(16, 4);
        let overlayed = CacheKey {
            overlay: 0xfeed,
            ..key(21, 3)
        };
        cache.insert(overlayed, dummy_entry("q"));
        assert!(cache.get(&overlayed, "q").is_some());
        assert!(
            cache.get(&key(21, 3), "q").is_none(),
            "catalog-only lookup must miss the overlayed entry"
        );
        assert!(
            cache
                .get(
                    &CacheKey {
                        overlay: 0xbeef,
                        ..key(21, 3)
                    },
                    "q"
                )
                .is_none(),
            "a different overlay must miss too"
        );
        // Both worlds can be resident side by side.
        cache.insert(key(21, 3), dummy_entry("q"));
        assert!(cache.get(&key(21, 3), "q").is_some());
        assert!(cache.get(&overlayed, "q").is_some());
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn remove_evicts_one_entry_immediately() {
        let cache = PlanCache::new(16, 4);
        cache.insert(key(5, 0), dummy_entry("a"));
        cache.insert(key(6, 0), dummy_entry("b"));
        let bytes_before = cache.resident_bytes();
        assert!(cache.remove(&key(5, 0)));
        assert!(!cache.remove(&key(5, 0)), "second remove finds nothing");
        assert!(cache.get(&key(5, 0), "a").is_none());
        assert!(cache.get(&key(6, 0), "b").is_some());
        assert!(cache.resident_bytes() < bytes_before);
    }

    #[test]
    fn epoch_in_key_misses_after_bump() {
        let cache = PlanCache::new(16, 4);
        cache.insert(key(7, 0), dummy_entry("q"));
        assert!(cache.get(&key(7, 0), "q").is_some());
        assert!(cache.get(&key(7, 1), "q").is_none(), "new epoch must miss");
    }

    #[test]
    fn lru_evicts_oldest() {
        let cache = PlanCache::new(2, 1); // 2 slots, one shard
        cache.insert(key(1, 0), dummy_entry("a"));
        cache.insert(key(2, 0), dummy_entry("b"));
        assert!(cache.get(&key(1, 0), "a").is_some()); // touch 1
        cache.insert(key(3, 0), dummy_entry("c")); // evicts 2
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(&key(1, 0), "a").is_some());
        assert!(cache.get(&key(2, 0), "b").is_none());
        assert!(cache.get(&key(3, 0), "c").is_some());
    }

    #[test]
    fn stale_epoch_insert_is_rejected_and_counted() {
        let cache = PlanCache::new(16, 4);
        // A lookup under epoch 2 teaches the cache the current epoch…
        assert!(cache.get(&key(7, 2), "q").is_none());
        // …so an optimizer that started under epoch 1 (and finished after
        // the bump) may not insert its result.
        assert!(!cache.insert(key(7, 1), dummy_entry("q")));
        assert_eq!(cache.stats().stale_rejects, 1);
        assert!(cache.is_empty());
        // The current epoch is still insertable, as is a newer one.
        assert!(cache.insert(key(7, 2), dummy_entry("q")));
        assert!(cache.insert(key(8, 3), dummy_entry("r")));
        assert_eq!(cache.stats().entries, 2);
        // note_epoch advances the watermark without a lookup.
        cache.note_epoch(5);
        assert!(!cache.insert(key(9, 4), dummy_entry("s")));
        assert_eq!(cache.stats().stale_rejects, 2);
    }

    #[test]
    fn corrupt_plan_is_rejected_and_never_served() {
        let cache = PlanCache::new(16, 4);
        let k = key(11, 0);
        assert!(!cache.insert(k, corrupt_entry("bad")));
        assert_eq!(cache.stats().verify_rejects, 1);
        assert!(cache.get(&k, "bad").is_none());
        assert!(cache.is_empty());
        // A scan of a collection the catalog never registered is rejected
        // the same way, not a panic inside the verifier.
        let mut dangling = (*dummy_entry("scan")).clone();
        let CachedBody::Static { plan, .. } = &mut dangling.body;
        let oodb_algebra::PhysicalOp::FileScan { coll, .. } = &mut plan.op else {
            panic!("dummy entry is a file scan");
        };
        *coll = oodb_object::CollectionId::from_index(999);
        assert!(!cache.insert(key(12, 0), Arc::new(dangling)));
        assert_eq!(cache.stats().verify_rejects, 2);
        assert!(cache.is_empty());
    }

    #[test]
    fn poisoned_shard_still_serves() {
        let cache = PlanCache::new(16, 1);
        assert!(cache.insert(key(1, 0), dummy_entry("a")));
        let held = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.map.get(&key(1, 0), |_| -> Option<()> {
                panic!("a holder of the shard lock panics")
            })
        }));
        assert!(held.is_err());
        assert!(cache.get(&key(1, 0), "a").is_some());
        assert!(cache.insert(key(2, 0), dummy_entry("b")));
        assert_eq!(cache.len(), 2);
        let s = cache.stats();
        assert_eq!((s.hits, s.entries), (1, 2));
        assert!(s.bytes > 0);
    }

    /// More distinct keys than the capacity never leave more than the
    /// capacity resident, however it divides over the shards.
    #[test]
    fn resident_entries_never_exceed_the_capacity() {
        let entry = dummy_entry("q");
        for (capacity, shards) in [(10, 4), (2, 8)] {
            let cache = PlanCache::new(capacity, shards);
            for fp in 0..1_000 {
                assert!(cache.insert(key(fp, 0), Arc::clone(&entry)));
            }
            let entries = cache.stats().entries;
            assert!(
                entries <= capacity,
                "({capacity}, {shards}) holds {entries}"
            );
        }
    }

    #[test]
    fn byte_cap_evicts_before_entry_cap() {
        let one = dummy_entry("a").approx_bytes();
        // Room for two entries by bytes, sixteen by count: bytes bind.
        let cache = PlanCache::with_byte_cap(16, 1, one * 2 + one / 2);
        cache.insert(key(1, 0), dummy_entry("a"));
        cache.insert(key(2, 0), dummy_entry("b"));
        assert_eq!(cache.stats().evictions, 0);
        assert!(cache.get(&key(2, 0), "b").is_some()); // touch 2
        cache.insert(key(3, 0), dummy_entry("c")); // over budget → evict LRU 1
        let s = cache.stats();
        assert_eq!((s.evictions, s.entries), (1, 2));
        assert!(s.bytes <= one * 2 + one / 2, "{} resident bytes", s.bytes);
        assert!(cache.get(&key(1, 0), "a").is_none());
        assert!(cache.get(&key(2, 0), "b").is_some());
        assert!(cache.get(&key(3, 0), "c").is_some());
    }

    #[test]
    fn oversized_entry_still_lands_alone() {
        // Budget below a single entry: the cache keeps a floor of one
        // resident entry rather than thrashing to empty.
        let cache = PlanCache::with_byte_cap(16, 1, 1);
        cache.insert(key(1, 0), dummy_entry("a"));
        cache.insert(key(2, 0), dummy_entry("b"));
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (1, 1));
        assert!(cache.get(&key(2, 0), "b").is_some());
    }

    #[test]
    fn byte_ledger_tracks_replace_and_clear() {
        let cache = PlanCache::new(16, 4);
        cache.insert(key(1, 0), dummy_entry("a"));
        let after_one = cache.resident_bytes();
        assert!(after_one > 0);
        // Replacing the same key must not double-count.
        cache.insert(key(1, 0), dummy_entry("a"));
        assert_eq!(cache.resident_bytes(), after_one);
        // A longer structural key weighs more.
        cache.insert(key(1, 0), dummy_entry(&"long".repeat(64)));
        assert!(cache.resident_bytes() > after_one);
        cache.clear();
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = PlanCache::new(16, 4);
        cache.insert(key(1, 0), dummy_entry("a"));
        assert!(cache.get(&key(1, 0), "a").is_some());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 1);
    }
}
