//! An append-only vector with lock-free reads and stable addresses.
//!
//! [`AppendVec`] backs the predicate arena: transformation rules intern
//! new predicates during optimization (writes, serialized on an internal
//! mutex) while executors running cached plans on other threads resolve
//! `PredId`s (reads). The old `RwLock<Vec<_>>` design made every
//! predicate evaluation — once per tuple — take a read lock *and* clone
//! the predicate. Here a read is three atomic loads of read-mostly
//! cache lines and hands back `&T` directly.
//!
//! Layout: storage is a sequence of chunks with doubling capacities
//! (64, 128, 256, …). Chunks are allocated on demand and never moved or
//! freed, so a published element's address is stable for the life of
//! the vector — the property that lets `get` return a reference rather
//! than a clone while pushes continue concurrently.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// log2 of the first chunk's capacity.
const BASE_BITS: u32 = 6;
/// Number of chunks; total capacity 64 · (2²⁶ − 1) ≈ 4.3 · 10⁹ slots.
const CHUNKS: usize = 26;

/// Maps an element index to `(chunk, offset_within_chunk)`.
fn locate(i: usize) -> (usize, usize) {
    let adjusted = (i >> BASE_BITS) + 1;
    let chunk = (usize::BITS - 1 - adjusted.leading_zeros()) as usize;
    let start = ((1usize << chunk) - 1) << BASE_BITS;
    (chunk, i - start)
}

/// Capacity of chunk `c`.
fn chunk_cap(c: usize) -> usize {
    1usize << (BASE_BITS + c as u32)
}

/// Append-only chunked vector: lock-free `get`, mutex-serialized `push`,
/// stable `&T` references.
pub struct AppendVec<T> {
    chunks: [OnceLock<Box<[OnceLock<T>]>>; CHUNKS],
    len: AtomicUsize,
    write: Mutex<()>,
}

impl<T> Default for AppendVec<T> {
    fn default() -> Self {
        AppendVec {
            chunks: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicUsize::new(0),
            write: Mutex::new(()),
        }
    }
}

impl<T> AppendVec<T> {
    /// An empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of published elements.
    ///
    /// `Acquire` pairs with the `Release` in [`push`](Self::push): any
    /// index below the returned length is fully initialized and safe to
    /// read without further synchronization.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// True when no element has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lock-free read. Returns `None` past the published length.
    pub fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len() {
            return None;
        }
        let (c, off) = locate(i);
        // Both lookups succeed for any index below the published length:
        // push initializes the chunk and the slot before the Release
        // store of the new length that our len() Acquire-observed.
        self.chunks[c].get().and_then(|chunk| chunk[off].get())
    }

    /// Appends `value`, returning its index. Writers serialize on an
    /// internal mutex; readers are never blocked.
    pub fn push(&self, value: T) -> usize {
        let _guard = crate::lock(&self.write);
        let i = self.len.load(Ordering::Relaxed);
        let (c, off) = locate(i);
        let chunk = self.chunks[c].get_or_init(|| {
            (0..chunk_cap(c))
                .map(|_| OnceLock::new())
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        if chunk[off].set(value).is_err() {
            // Unreachable: slots below len are set exactly once under
            // the write mutex. Keep the invariant loud in debug builds.
            debug_assert!(false, "AppendVec slot double-write");
        }
        self.len.store(i + 1, Ordering::Release);
        i
    }

    /// Iterates over the elements published at call time.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let n = self.len();
        (0..n).filter_map(move |i| self.get(i))
    }
}

impl<T: Clone> Clone for AppendVec<T> {
    fn clone(&self) -> Self {
        let out = AppendVec::new();
        for v in self.iter() {
            out.push(v.clone());
        }
        out
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for AppendVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T> FromIterator<T> for AppendVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let out = AppendVec::new();
        for v in iter {
            out.push(v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn locate_covers_chunk_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(63), (0, 63));
        assert_eq!(locate(64), (1, 0));
        assert_eq!(locate(191), (1, 127));
        assert_eq!(locate(192), (2, 0));
        assert_eq!(locate(64 * 3 + 256), (3, 0));
    }

    #[test]
    fn push_get_roundtrip_across_chunks() {
        let v = AppendVec::new();
        for i in 0..1000usize {
            assert_eq!(v.push(i * 7), i);
        }
        assert_eq!(v.len(), 1000);
        for i in 0..1000usize {
            assert_eq!(v.get(i), Some(&(i * 7)));
        }
        assert_eq!(v.get(1000), None);
    }

    #[test]
    fn references_stay_stable_across_growth() {
        let v = AppendVec::new();
        v.push(String::from("anchor"));
        let anchor: *const String = v.get(0).unwrap();
        for i in 0..5000 {
            v.push(format!("filler-{i}"));
        }
        // Address unchanged and contents intact after many reallocating
        // pushes — the property the predicate arena relies on.
        assert_eq!(anchor, v.get(0).unwrap() as *const String);
        assert_eq!(v.get(0).unwrap(), "anchor");
    }

    #[test]
    fn concurrent_readers_see_prefix_consistent_data() {
        // Miri interprets every atomic op; keep the interleaving but
        // shrink the volume so the CI leg finishes in seconds.
        let (pushes, scans) = if cfg!(miri) {
            (1_500, 20)
        } else {
            (20_000, 200)
        };
        let v = Arc::new(AppendVec::new());
        let writer = {
            let v = Arc::clone(&v);
            std::thread::spawn(move || {
                for i in 0..pushes {
                    v.push(i);
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let v = Arc::clone(&v);
                std::thread::spawn(move || {
                    for _ in 0..scans {
                        let n = v.len();
                        for i in 0..n {
                            assert_eq!(v.get(i), Some(&i));
                        }
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(v.len(), pushes);
    }

    #[test]
    fn clone_and_collect() {
        let v: AppendVec<u32> = (0..300).collect();
        let c = v.clone();
        assert_eq!(c.len(), 300);
        assert_eq!(c.get(299), Some(&299));
        assert_eq!(format!("{:?}", AppendVec::from_iter([1, 2])), "[1, 2]");
    }
}
