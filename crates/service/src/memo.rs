//! The compiled-query memo: exact ZQL text → the fingerprint it compiled
//! to, stamped with the catalog it was compiled against. A repeated text
//! whose stamp matches the request's snapshot skips parse, simplify and
//! fingerprint — a *soft parse* — and goes straight to the plan-cache
//! probe.
//!
//! An entry holds no `QueryEnv`: a soft parse only needs the cache key,
//! and a plan-cache hit runs against the entry's own environment. A miss
//! compiles in full, as a first submission does.

use oodb_algebra::fingerprint::QueryFingerprint;
use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// What a compile depends on besides the text: the catalog's statistics
/// epoch and index set. A memoized fingerprint — and a prepared
/// statement's environment — serves only a snapshot with the same stamp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Stamp {
    pub(crate) epoch: u64,
    pub(crate) index_set: u64,
}

struct Slot {
    text: Box<str>,
    fp: Arc<QueryFingerprint>,
    stamp: Stamp,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    /// Keyed by the text's hash; the text itself is compared on a hit, so
    /// a collision costs a recompile, never a wrong fingerprint.
    map: HashMap<u64, Slot>,
    tick: u64,
}

/// Sharded like the plan cache, so concurrent submissions of different
/// texts rarely meet on one lock; each shard evicts its least recently
/// used entry when full.
pub(crate) struct TextMemo {
    shards: Vec<Mutex<Shard>>,
    per_shard: usize,
    hasher: RandomState,
}

impl TextMemo {
    /// At most `capacity` entries in at most `shards` shards.
    pub(crate) fn new(capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity);
        TextMemo {
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            per_shard: capacity / shards,
            hasher: RandomState::new(),
        }
    }

    fn shard(&self, hash: u64) -> MutexGuard<'_, Shard> {
        let shard = &self.shards[(hash as usize) % self.shards.len()];
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The fingerprint `text` compiled to under `stamp`, if memoized.
    pub(crate) fn get(&self, text: &str, stamp: Stamp) -> Option<Arc<QueryFingerprint>> {
        let hash = self.hasher.hash_one(text);
        let mut shard = self.shard(hash);
        shard.tick += 1;
        let tick = shard.tick;
        let slot = shard.map.get_mut(&hash)?;
        if *slot.text != *text || slot.stamp != stamp {
            return None;
        }
        slot.last_used = tick;
        Some(Arc::clone(&slot.fp))
    }

    /// Memoizes (or re-stamps) what `text` just compiled to.
    pub(crate) fn insert(&self, text: &str, fp: &QueryFingerprint, stamp: Stamp) {
        let hash = self.hasher.hash_one(text);
        let mut shard = self.shard(hash);
        shard.tick += 1;
        let last_used = shard.tick;
        if shard.map.len() >= self.per_shard && !shard.map.contains_key(&hash) {
            let lru = shard.map.iter().min_by_key(|(_, s)| s.last_used);
            if let Some(victim) = lru.map(|(&h, _)| h) {
                shard.map.remove(&victim);
            }
        }
        let slot = Slot {
            text: text.into(),
            fp: Arc::new(fp.clone()),
            stamp,
            last_used,
        };
        shard.map.insert(hash, slot);
    }

    /// Resident entries.
    pub(crate) fn len(&self) -> usize {
        let len = |s: &Mutex<Shard>| s.lock().unwrap_or_else(PoisonError::into_inner).map.len();
        self.shards.iter().map(len).sum()
    }
}
