//! Epoch-snapshot cells: copy-on-write shared state that readers take
//! without a lock.
//!
//! A [`Snap<T>`] holds an `Arc<T>` that writers replace wholesale and
//! readers observe atomically, in the spirit of the `arc-swap` crate.
//! With only `std` available the trick is a per-thread snapshot cache:
//!
//! * every cell gets a process-unique id and a version counter;
//! * `load` first reads the version (one `Acquire` load of a cache line
//!   that is only ever *written* on reconfiguration) and, if the calling
//!   thread cached a handle at that version, upgrades it: a thread-local
//!   probe plus a reference-count update on the snapshot;
//! * only on a miss (first read, after a writer swapped, or when the
//!   cached value is gone) does the reader take the internal mutex.
//!
//! The cache holds `Weak` handles, so a cell keeps only the value it
//! currently publishes: a superseded value is freed when its last reader
//! drops it, and a dropped cell's value with it, even on threads that
//! read it and went idle. A miss prunes the thread's entries whose value
//! is gone, so the cache is no larger than the cells still alive.
//!
//! Writers serialize on the mutex, publish the new `Arc`, and bump the
//! version with `Release` ordering so the fast path's `Acquire` load
//! observes a fully initialized snapshot.

use crate::lock;
use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Process-wide allocator of unique cell ids (keys for the thread-local
/// snapshot cache).
static NEXT_CELL_ID: AtomicU64 = AtomicU64::new(1);

/// A cached snapshot: the version it was taken at, plus a type-erased
/// handle to the value published under that version. Weak, so the
/// cache never keeps a value alive.
type CachedSnap = (u64, Weak<dyn Any + Send + Sync>);

thread_local! {
    /// cell id → snapshot last seen by this thread.
    static SNAP_CACHE: RefCell<HashMap<u64, CachedSnap>> =
        RefCell::new(HashMap::new());
}

/// An atomically swappable `Arc<T>` whose steady-state reads take no
/// lock.
///
/// Readers call [`Snap::load`] and get a consistent snapshot; writers
/// call [`Snap::update`] to publish a complete replacement. There is no
/// partial mutation: every published value is a whole, internally
/// consistent `T`, which is what makes torn reads impossible by
/// construction. The cell retains only its current value.
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
    /// `Acquire` load, a thread-local map probe and a reference-count
    /// update on the snapshot. After a swap (or on a thread's first
    /// read) the call refreshes through the internal mutex once and is
    /// back on the fast path.
    pub fn load(&self) -> Arc<T> {
        let seen = self.version.load(Ordering::Acquire);
        SNAP_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((v, weak)) = cache.get(&self.id) {
                if *v == seen {
                    // The upgrade fails only if a writer superseded the
                    // value and its last reader dropped it since `seen`.
                    if let Some(arc) = weak.upgrade().and_then(|a| a.downcast::<T>().ok()) {
                        return arc;
                    }
                }
            }
            // Miss: refresh under the lock. The version is re-read while
            // the lock is held (writers bump it under the same lock), so
            // the cached (version, handle) pair is consistent.
            let guard = lock(&self.slow);
            let arc = Arc::clone(&guard);
            let v = self.version.load(Ordering::Acquire);
            drop(guard);
            cache.retain(|_, (_, weak)| weak.strong_count() > 0);
            let weak: Weak<dyn Any + Send + Sync> = Arc::downgrade(&arc) as _;
            cache.insert(self.id, (v, weak));
            arc
        })
    }

    /// Read-modify-publish: builds a replacement from the current value
    /// under the writer lock (so concurrent updates serialize and none
    /// is lost) and publishes it. The superseded value is freed here,
    /// after the lock is released, unless a reader still holds it.
    pub fn update<R>(&self, f: impl FnOnce(&T) -> (T, R)) -> R {
        let mut guard = lock(&self.slow);
        let (next, out) = f(&guard);
        let superseded = std::mem::replace(&mut *guard, Arc::new(next));
        self.version.fetch_add(1, Ordering::Release);
        drop(guard);
        drop(superseded);
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

    /// Cells this thread's snapshot cache holds an entry for.
    fn cached_cells() -> usize {
        SNAP_CACHE.with(|cache| cache.borrow().len())
    }

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
        let count = if cfg!(miri) { 20 } else { 131 };
        let cells: Vec<Snap<usize>> = (0..count).map(Snap::new).collect();
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(*c.load(), i);
        }
        for (i, c) in cells.iter().enumerate().rev() {
            assert_eq!(*c.load(), i);
        }
        drop(cells);
        // The next miss prunes every entry whose cell is gone: the
        // thread's cache is no larger than the cells still alive.
        let live = Snap::new(7usize);
        assert_eq!(*live.load(), 7);
        assert!(cached_cells() <= 1, "{} entries cached", cached_cells());
    }

    #[test]
    fn a_dropped_cell_frees_its_value_on_the_thread_that_loaded_it() {
        let cell = Snap::new(vec![1u8; 64]);
        let value = Arc::downgrade(&cell.load());
        drop(cell);
        assert!(value.upgrade().is_none(), "the thread cache kept the value");
    }

    #[test]
    fn an_update_frees_the_superseded_value_while_a_reader_is_parked() {
        let cell = Arc::new(Snap::new(vec![1u8; 64]));
        let (loaded_tx, loaded_rx) = std::sync::mpsc::channel();
        let (resume_tx, resume_rx) = std::sync::mpsc::channel::<()>();
        let reader = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                let first = Arc::downgrade(&cell.load());
                loaded_tx.send(first).unwrap();
                // Parked with the first value in its thread cache.
                resume_rx.recv().unwrap();
                cell.load()[0]
            })
        };
        let first = loaded_rx.recv().unwrap();
        cell.update(|_| (vec![2u8; 64], ()));
        assert!(
            first.upgrade().is_none(),
            "the parked reader kept the value"
        );
        resume_tx.send(()).unwrap();
        assert_eq!(reader.join().unwrap(), 2);
    }
}
