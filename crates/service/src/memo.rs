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
use oodb_sync::BoundedMap;
use std::hash::{BuildHasher, RandomState};
use std::sync::Arc;

/// What a compile depends on besides the text: the catalog's statistics
/// epoch and index set. A memoized fingerprint — and a prepared
/// statement's environment — serves only a snapshot with the same stamp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Stamp {
    pub(crate) epoch: u64,
    pub(crate) index_set: u64,
}

struct Memoized {
    text: Box<str>,
    fp: Arc<QueryFingerprint>,
    stamp: Stamp,
}

/// An evict-LRU [`BoundedMap`] shaped like the plan cache, keyed by the
/// text's hash; the text itself is compared on a hit, so a collision
/// costs a recompile, never a wrong fingerprint.
pub(crate) struct TextMemo {
    map: BoundedMap<u64, Memoized>,
    hasher: RandomState,
}

impl TextMemo {
    /// At most `capacity` entries in at most `shards` shards.
    pub(crate) fn new(capacity: usize, shards: usize) -> Self {
        TextMemo {
            map: BoundedMap::evict_lru(capacity, shards, |&hash| hash),
            hasher: RandomState::new(),
        }
    }

    /// The fingerprint `text` compiled to under `stamp`, if memoized.
    pub(crate) fn get(&self, text: &str, stamp: Stamp) -> Option<Arc<QueryFingerprint>> {
        let hit =
            |m: &mut Memoized| (*m.text == *text && m.stamp == stamp).then(|| Arc::clone(&m.fp));
        self.map.get(&self.hasher.hash_one(text), hit)
    }

    /// Memoizes (or re-stamps) what `text` just compiled to.
    pub(crate) fn insert(&self, text: &str, fp: &QueryFingerprint, stamp: Stamp) {
        let memoized = Memoized {
            text: text.into(),
            fp: Arc::new(fp.clone()),
            stamp,
        };
        self.map.insert(self.hasher.hash_one(text), memoized);
    }

    /// Resident entries.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}
