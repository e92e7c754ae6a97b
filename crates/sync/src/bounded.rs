//! A sharded map with a hard bound, behind every registry filled from
//! wire input. Each shard is a poison-recovering `Mutex` with its own LRU
//! tick. [`BoundedMap::refuse_new`] bounds the total with one shared
//! count and refuses a new key past it; [`BoundedMap::evict_lru`] splits
//! the capacity into per-shard shares that sum to exactly it, and a full
//! shard evicts its least recently used entry that
//! [`BoundedMap::protecting`] does not hold (refusing the newcomer when
//! it holds them all).

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, PoisonError};

#[derive(Debug)]
struct Slot<V> {
    value: V,
    last_used: u64,
    weight: usize,
}

#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<K, Slot<V>>,
    tick: u64,
    /// This shard's share of the capacity (evict LRU).
    capacity: usize,
    weight: usize,
}

/// The sharded, capped map; see the module docs.
#[derive(Debug)]
pub struct BoundedMap<K, V> {
    shards: Box<[Mutex<Shard<K, V>>]>,
    /// The `u64` a key's shard is chosen from, modulo the shard count.
    shard_of: fn(&K) -> u64,
    /// The total bound of a refuse-new map; `None` evicts LRU.
    refuse_past: Option<usize>,
    /// Resident entries; a refuse-new map admits against it. `Relaxed`
    /// throughout: it publishes no data (the shard locks do), and one
    /// atomic's updates are totally ordered, which is all the bound needs.
    len: AtomicUsize,
    evictions: AtomicU64,
    protected: fn(&V) -> bool,
    /// Per-shard weight budget, and what an entry weighs.
    max_weight: usize,
    weigh: fn(&V) -> usize,
}

impl<K: Hash + Eq, V> BoundedMap<K, V> {
    /// At most `capacity` keys (floored at 1) in total over `shards`
    /// shards; a new key past it is refused.
    pub fn refuse_new(capacity: usize, shards: usize, shard_of: fn(&K) -> u64) -> Self {
        let mut map = Self::evict_lru(capacity, shards, shard_of);
        map.refuse_past = Some(capacity.max(1));
        map
    }

    /// `capacity` entries (floored at 1) over `shards` shards (clamped to
    /// `1..=capacity`) in shares that sum to exactly `capacity`.
    pub fn evict_lru(capacity: usize, shards: usize, shard_of: fn(&K) -> u64) -> Self {
        let capacity = capacity.max(1);
        let n = shards.clamp(1, capacity);
        let shard = |i| {
            Mutex::new(Shard {
                map: HashMap::new(),
                tick: 0,
                capacity: capacity / n + usize::from(i < capacity % n),
                weight: 0,
            })
        };
        BoundedMap {
            shards: (0..n).map(shard).collect(),
            shard_of,
            refuse_past: None,
            len: AtomicUsize::new(0),
            evictions: AtomicU64::new(0),
            protected: |_| false,
            max_weight: usize::MAX,
            weigh: |_| 0,
        }
    }

    /// Never evicts an entry `protected` holds.
    pub fn protecting(mut self, protected: fn(&V) -> bool) -> Self {
        self.protected = protected;
        self
    }

    /// Also evicts while a shard's summed `weigh` would pass its even share
    /// of `max_weight` (floored at 1, rounded up); a shard keeps at least
    /// one entry however heavy.
    pub fn with_weight_cap(mut self, max_weight: usize, weigh: fn(&V) -> usize) -> Self {
        (self.max_weight, self.weigh) = (max_weight.max(1).div_ceil(self.shards.len()), weigh);
        self
    }

    fn lock(&self, key: &K) -> MutexGuard<'_, Shard<K, V>> {
        lock(&self.shards[(self.shard_of)(key) as usize % self.shards.len()])
    }

    /// Runs `f` on the value under `key`; a `Some` answer marks it used.
    pub fn get<R>(&self, key: &K, f: impl FnOnce(&mut V) -> Option<R>) -> Option<R> {
        let mut guard = self.lock(key);
        let shard = &mut *guard;
        let slot = shard.map.get_mut(key)?;
        let out = f(&mut slot.value)?;
        shard.tick += 1;
        slot.last_used = shard.tick;
        Some(out)
    }

    /// Replaces the entry under `key` with `value` (a racing insert of the
    /// same key may win instead); `false` when a new key is refused.
    pub fn insert(&self, key: K, value: V) -> bool {
        self.remove(&key);
        self.get_or_insert_with(key, || value, |_, _| ()).is_some()
    }

    /// Runs `f` on the value under `key` — `make()` when absent and the
    /// policy admits a new key — and whether this call made it, marking
    /// it used; `None` when refused.
    pub fn get_or_insert_with<R>(
        &self,
        key: K,
        make: impl FnOnce() -> V,
        f: impl FnOnce(&mut V, bool) -> R,
    ) -> Option<R> {
        let mut guard = self.lock(&key);
        let shard = &mut *guard;
        shard.tick += 1;
        let last_used = shard.tick;
        if let Some(slot) = shard.map.get_mut(&key) {
            slot.last_used = last_used;
            return Some(f(&mut slot.value, false));
        }
        if let Some(cap) = self.refuse_past {
            let admit = |n| (n < cap).then_some(n + 1);
            self.len.fetch_update(Relaxed, Relaxed, admit).ok()?;
        }
        let mut value = make();
        let weight = (self.weigh)(&value);
        if self.refuse_past.is_none() {
            self.make_room(shard, weight)?;
        }
        let out = f(&mut value, true);
        shard.weight += weight;
        shard.map.insert(
            key,
            Slot {
                value,
                last_used,
                weight,
            },
        );
        Some(out)
    }

    /// Evicts least recently used unprotected entries until `shard` has
    /// room for a newcomer of `weight`, and counts it; `None` when only
    /// protected entries are left to evict.
    fn make_room(&self, shard: &mut Shard<K, V>, weight: usize) -> Option<()> {
        while !shard.map.is_empty()
            && (shard.map.len() >= shard.capacity || shard.weight + weight > self.max_weight)
        {
            let lru = shard.map.values().filter(|s| !(self.protected)(&s.value));
            let victim = lru.map(|s| s.last_used).min()?;
            if let Some((_, gone)) = shard.map.extract_if(|_, s| s.last_used == victim).next() {
                shard.weight -= gone.weight;
            }
            self.evictions.fetch_add(1, Relaxed);
            self.len.fetch_sub(1, Relaxed);
        }
        self.len.fetch_add(1, Relaxed);
        Some(())
    }

    /// Removes the entry under `key`; `true` when one was resident.
    pub fn remove(&self, key: &K) -> bool {
        let mut shard = self.lock(key);
        let Some(gone) = shard.map.remove(key) else {
            return false;
        };
        shard.weight -= gone.weight;
        self.len.fetch_sub(1, Relaxed);
        true
    }

    /// Keeps only the entries `keep` accepts.
    pub fn retain(&self, mut keep: impl FnMut(&K, &V) -> bool) {
        for shard in self.shards.iter() {
            let Shard { map, weight, .. } = &mut *lock(shard);
            let before = map.len();
            map.retain(|k, s| {
                let kept = keep(k, &s.value);
                *weight -= if kept { 0 } else { s.weight };
                kept
            });
            self.len.fetch_sub(before - map.len(), Relaxed);
        }
    }

    /// Drops every entry.
    pub fn clear(&self) {
        self.retain(|_, _| false);
    }

    /// Calls `f` on every entry, one shard at a time.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for shard in self.shards.iter() {
            lock(shard).map.iter().for_each(|(k, s)| f(k, &s.value));
        }
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.len.load(Relaxed)
    }

    /// True when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Summed weight of the resident entries.
    pub fn weight(&self) -> usize {
        self.shards.iter().map(|s| lock(s).weight).sum()
    }

    /// Entries evicted to make room.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Relaxed)
    }
}

/// Locks `m` even when a holder panicked: the workspace keeps locked data
/// valid after every single store, so a poisoned lock still serves.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn id(key: &u64) -> u64 {
        *key
    }

    fn keys_of<V>(map: &BoundedMap<u64, V>) -> Vec<u64> {
        let mut out = Vec::new();
        map.for_each(|k, _| out.push(*k));
        out.sort_unstable();
        out
    }

    #[test]
    fn lru_shares_sum_to_exactly_the_capacity() {
        for (capacity, shards) in [(10, 4), (2, 8), (256, 8), (7, 7), (1, 3)] {
            let map = BoundedMap::evict_lru(capacity, shards, id);
            for k in 0..1_000u64 {
                assert!(map.insert(k, k));
            }
            assert_eq!(map.len(), capacity, "({capacity}, {shards})");
            assert_eq!(keys_of(&map).len(), capacity);
        }
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let map = BoundedMap::evict_lru(2, 1, id);
        map.insert(1u64, "a");
        map.insert(2, "b");
        assert_eq!(map.get(&1, |v| Some(*v)), Some("a"));
        map.insert(3, "c");
        assert_eq!(keys_of(&map), [1, 3]);
        assert_eq!(map.evictions(), 1);
        // A refused answer does not count as a use.
        assert_eq!(map.get(&1, |_| None::<()>), None);
        map.insert(4, "d");
        assert_eq!(keys_of(&map), [3, 4]);
    }

    #[test]
    fn protected_entries_are_never_victims() {
        let map = BoundedMap::evict_lru(3, 1, id).protecting(|v: &bool| *v);
        map.insert(1u64, true);
        map.insert(2, false);
        map.insert(3, true);
        assert!(map.insert(4, false), "evicts 2, the one unprotected");
        assert_eq!(keys_of(&map), [1, 3, 4]);
        map.get(&4, |v| {
            *v = true;
            Some(())
        });
        assert!(!map.insert(5, false), "every entry protected: refused");
        assert_eq!(map.get_or_insert_with(5, || false, |_, c| c), None);
        assert!(map.insert(4, true), "a replacement still lands");
        assert_eq!((map.len(), map.evictions()), (3, 1));
    }

    #[test]
    fn weight_cap_evicts_before_the_count_cap() {
        let map = BoundedMap::evict_lru(16, 1, id).with_weight_cap(25, |&w| w);
        map.insert(1, 10);
        map.insert(2, 10);
        map.insert(3, 10);
        assert_eq!((keys_of(&map), map.weight()), (vec![2, 3], 20));
        map.insert(3, 4);
        assert_eq!(map.weight(), 14, "a replacement's old weight is gone");
        map.insert(4, 100);
        assert_eq!(
            (keys_of(&map), map.weight()),
            (vec![4], 100),
            "floor of one"
        );
        map.clear();
        assert_eq!((map.len(), map.weight()), (0, 0));
    }

    #[test]
    fn refuse_new_bounds_the_total_not_each_shard() {
        let map = BoundedMap::refuse_new(5, 4, id);
        // Every key lands in shard 0: a per-shard bound would stop at 1 or 2.
        for k in 0..5u64 {
            assert_eq!(map.get_or_insert_with(k * 4, || k, |_, c| c), Some(true));
        }
        assert_eq!(map.get_or_insert_with(1, || 9, |_, c| c), None);
        assert_eq!(
            map.get_or_insert_with(8, || 9, |v, c| (*v, c)),
            Some((2, false))
        );
        assert!(map.insert(8, 7), "a known key is replaced");
        assert!(!map.insert(3, 3));
        assert!(map.remove(&8));
        assert!(map.insert(3, 3), "removal frees a place");
        map.retain(|k, _| *k != 0);
        assert_eq!(map.len(), 4);
        assert_eq!(map.evictions(), 0);
    }

    #[test]
    fn a_poisoned_shard_still_serves() {
        let map = BoundedMap::evict_lru(16, 1, id);
        assert!(map.insert(1, "a"));
        let held = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map.get(&1, |_| -> Option<()> {
                panic!("a holder of the shard lock panics")
            })
        }));
        assert!(held.is_err());
        assert!(map.shards[0].is_poisoned());
        assert_eq!(map.get(&1, |v| Some(*v)), Some("a"));
        assert!(map.insert(2, "b"));
        assert_eq!(map.len(), 2);
    }

    /// Threads racing distinct keys into a shared map: the resident count
    /// never passes the cap, and a refuse-new map takes exactly `CAP`.
    #[test]
    fn hammer_never_exceeds_the_cap() {
        const THREADS: usize = 4;
        const CAP: usize = 24;
        let per_thread = if cfg!(miri) { 40 } else { 2_000 };
        for map in [
            BoundedMap::refuse_new(CAP, 8, id),
            BoundedMap::evict_lru(CAP, 8, id),
        ] {
            let (start, admitted) = (Barrier::new(THREADS), AtomicUsize::new(0));
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    let (map, start, admitted) = (&map, &start, &admitted);
                    s.spawn(move || {
                        start.wait();
                        for i in 0..per_thread {
                            let key = (t * per_thread + i) as u64;
                            if map.insert(key, ()) {
                                admitted.fetch_add(1, Relaxed);
                            }
                            assert!(map.len() <= CAP, "{} resident", map.len());
                        }
                    });
                }
            });
            let mut resident = 0;
            map.for_each(|_, _| resident += 1);
            assert_eq!((map.len(), resident), (CAP, CAP));
            if map.refuse_past.is_some() {
                assert_eq!(admitted.load(Relaxed), CAP, "exactly CAP keys accepted");
            }
        }
    }
}
