//! Epoch-snapshot cells: copy-on-write shared state with load-only reads.
//!
//! A [`Snap<T>`] holds an `Arc<T>` that writers replace wholesale and
//! readers observe atomically. The design goal is the same as the
//! `arc-swap` crate's: a reader must never take a lock or perform a
//! read-modify-write on a *shared* cache line just to look at current
//! state, because at eight threads that RMW traffic is exactly the
//! scaling cliff this repo's plan-cache bench measured.
//!
//! With only `std` available the trick is a per-thread snapshot cache:
//!
//! * every cell gets a process-unique id and a version counter;
//! * `load` first reads the version (one `Acquire` load of a cache line
//!   that is only ever *written* on reconfiguration — effectively
//!   read-shared) and, if the calling thread already cached that
//!   version's `Arc`, clones the thread-local handle;
//! * only on a version miss (first read, or after a writer swapped) does
//!   the reader fall back to the internal mutex to refresh its cache.
//!
//! Writers serialize on the mutex, publish the new `Arc`, and bump the
//! version with `Release` ordering so the fast path's `Acquire` load
//! observes a fully initialized snapshot.

use crate::lock;
use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Process-wide allocator of unique cell ids (keys for the thread-local
/// snapshot cache).
static NEXT_CELL_ID: AtomicU64 = AtomicU64::new(1);

/// Cap on the per-thread cache. Long-lived processes hold a handful of
/// cells (service state, metrics registry); test binaries churn through
/// many short-lived services, so the cache is cleared wholesale once it
/// grows past this bound — correctness never depends on a hit.
const CACHE_CAP: usize = 64;

/// A cached snapshot: the version it was taken at, plus the type-erased
/// `Arc` published under that version.
type CachedSnap = (u64, Arc<dyn Any + Send + Sync>);

thread_local! {
    /// cell id → snapshot last seen by this thread.
    static SNAP_CACHE: RefCell<HashMap<u64, CachedSnap>> =
        RefCell::new(HashMap::new());
}

/// An atomically swappable `Arc<T>` with load-only steady-state reads.
///
/// Readers call [`Snap::load`] and get a consistent snapshot; writers
/// call [`Snap::update`] to publish a complete replacement. There is no partial mutation: every published
/// value is a whole, internally consistent `T`, which is what makes
/// torn reads impossible by construction.
pub struct Snap<T: Send + Sync + 'static> {
    id: u64,
    version: AtomicU64,
    slow: Mutex<Arc<T>>,
}

impl<T: Send + Sync + 'static> Snap<T> {
    /// Creates a cell holding `value`.
    pub fn new(value: T) -> Self {
        Snap {
            id: NEXT_CELL_ID.fetch_add(1, Ordering::Relaxed),
            version: AtomicU64::new(1),
            slow: Mutex::new(Arc::new(value)),
        }
    }

    /// Takes a consistent snapshot of the current value.
    ///
    /// Steady state (no writer since this thread's last look): one
    /// `Acquire` load plus a thread-local map probe — no shared-memory
    /// writes at all. After a swap (or on a thread's first read) the
    /// call refreshes through the internal mutex once and is back on
    /// the fast path.
    pub fn load(&self) -> Arc<T> {
        let seen = self.version.load(Ordering::Acquire);
        SNAP_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((v, any)) = cache.get(&self.id) {
                if *v == seen {
                    if let Ok(arc) = Arc::clone(any).downcast::<T>() {
                        return arc;
                    }
                }
            }
            // Miss: refresh under the lock. The version is re-read while
            // the lock is held (writers bump it under the same lock), so
            // the cached (version, Arc) pair is consistent.
            let guard = lock(&self.slow);
            let arc = Arc::clone(&guard);
            let v = self.version.load(Ordering::Acquire);
            drop(guard);
            if cache.len() >= CACHE_CAP {
                cache.clear();
            }
            cache.insert(self.id, (v, arc.clone() as Arc<dyn Any + Send + Sync>));
            arc
        })
    }

    /// Read-modify-publish: builds a replacement from the current value
    /// under the writer lock (so concurrent updates serialize and none
    /// is lost) and publishes it.
    pub fn update<R>(&self, f: impl FnOnce(&T) -> (T, R)) -> R {
        let mut guard = lock(&self.slow);
        let (next, out) = f(&guard);
        *guard = Arc::new(next);
        self.version.fetch_add(1, Ordering::Release);
        out
    }
}

impl<T: Send + Sync + 'static + std::fmt::Debug> std::fmt::Debug for Snap<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snap").field("value", &self.load()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn load_sees_latest_store() {
        let s = Snap::new(1u64);
        assert_eq!(*s.load(), 1);
        s.update(|_| (2, ()));
        assert_eq!(*s.load(), 2);
        // Repeated loads hit the thread-local cache and stay correct.
        assert_eq!(*s.load(), 2);
        s.update(|_| (3, ()));
        assert_eq!(*s.load(), 3);
    }

    #[test]
    fn update_serializes_writers() {
        let s = Arc::new(Snap::new(0u64));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..250 {
                        s.update(|v| (*v + 1, ()));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*s.load(), 1000);
    }

    #[test]
    fn snapshots_are_consistent_under_concurrent_swaps() {
        // Value is a pair that writers always keep equal; a torn read
        // would surface as a mismatched pair.
        let s = Arc::new(Snap::new((0u64, 0u64)));
        let stop = Arc::new(AtomicUsize::new(0));
        let writer = {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while stop.load(Ordering::Relaxed) == 0 {
                    i += 1;
                    s.update(|_| ((i, i), ()));
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..20_000 {
                        let snap = s.load();
                        assert_eq!(snap.0, snap.1, "torn snapshot");
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        stop.store(1, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn distinct_cells_do_not_alias_in_the_cache() {
        let a = Snap::new(10u32);
        let b = Snap::new(20u32);
        assert_eq!(*a.load(), 10);
        assert_eq!(*b.load(), 20);
        assert_eq!(*a.load(), 10);
    }

    #[test]
    fn cache_overflow_still_reads_correctly() {
        let cells: Vec<Snap<usize>> = (0..(CACHE_CAP * 2 + 3)).map(Snap::new).collect();
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(*c.load(), i);
        }
        for (i, c) in cells.iter().enumerate().rev() {
            assert_eq!(*c.load(), i);
        }
    }
}
