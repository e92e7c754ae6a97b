//! Buffer pool (LRU) and the combined I/O facade.
//!
//! The paper notes that "actual assembly performance including the effects
//! of buffer hits can only be studied in the context of a real, working
//! system" — this is that system, scaled down: a fixed-capacity LRU page
//! cache in front of the simulated disk. The executor performs all page
//! access through [`Io`], so buffer hits are free and misses are charged by
//! the [`crate::disk::Disk`].

use crate::disk::{Disk, DiskStats, PageId, PAGE_BYTES};
use oodb_fault::{Fault, FaultInjector};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes a [`PageId`] with one multiply. Page numbers are dense and come
/// from the store, never from outside the program, so there is nothing for
/// SipHash to defend: the multiply spreads neighbouring pages over the
/// table, and folding the product's high half down keeps strided page
/// numbers apart in the low bits that pick a bucket.
#[derive(Clone, Copy, Debug, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a page id hashes as one u64");
    }

    fn write_u64(&mut self, page: u64) {
        let h = page.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Pages the resident map holds before it first has to grow: more than a
/// 1/10-scale query touches, small enough to allocate per executor.
const RESIDENT_START: usize = 512;

/// A fixed-capacity LRU page cache.
///
/// Implementation: a hash map from page to a monotically increasing access
/// stamp plus a lazily compacted eviction scan. Capacity is in pages; the
/// paper's 32 MB workstation at 4 KB pages gives 8192.
#[derive(Clone, Debug)]
pub struct BufferPool {
    capacity: usize,
    clock: u64,
    resident: HashMap<PageId, u64, BuildHasherDefault<PageHasher>>,
    hits: u64,
    misses: u64,
}

impl BufferPool {
    /// Creates a pool holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        BufferPool {
            capacity,
            clock: 0,
            resident: HashMap::with_capacity_and_hasher(
                capacity.min(RESIDENT_START),
                BuildHasherDefault::default(),
            ),
            hits: 0,
            misses: 0,
        }
    }

    /// Records an access. Returns `true` on a buffer hit. On a miss the
    /// page becomes resident, evicting the least-recently-used page if the
    /// pool is full.
    pub fn access(&mut self, page: PageId) -> bool {
        self.access_run(page, 1)
    }

    /// Records `n >= 1` back-to-back accesses to one page with a single
    /// lookup; returns whether the first was a hit. Counters, clock and
    /// LRU stamp end exactly where `n` calls of [`BufferPool::access`]
    /// leave them: after the first access the page is resident, so the
    /// rest are hits that only advance the clock.
    pub fn access_run(&mut self, page: PageId, n: u64) -> bool {
        self.clock += n;
        if let Some(stamp) = self.resident.get_mut(&page) {
            *stamp = self.clock;
            self.hits += n;
            return true;
        }
        self.misses += 1;
        self.hits += n - 1;
        if self.resident.len() >= self.capacity {
            // Evict the LRU entry. Linear scan is fine: eviction only
            // happens on misses and pools are small in tests / bounded in
            // experiments.
            if let Some((&victim, _)) = self.resident.iter().min_by_key(|(_, &s)| s) {
                self.resident.remove(&victim);
            }
        }
        self.resident.insert(page, self.clock);
        false
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// The I/O facade the executor charges all page access through:
/// buffer-pool check first, disk on miss. The pool's and the disk's
/// counters are the one record of what was touched; a caller attributes
/// I/O to an operator by reading them before and after it.
#[derive(Clone, Debug)]
pub struct Io {
    pool: BufferPool,
    /// The simulated device.
    pub disk: Disk,
    /// Optional fault injector consulted before every page access (see
    /// [`Io::try_touch`]). `None` keeps the read path infallible.
    injector: Option<FaultInjector>,
}

impl Io {
    /// Creates an I/O stack with a pool of `pool_pages` pages in front of
    /// a fresh disk.
    pub fn new(pool_pages: usize) -> Self {
        Io {
            pool: BufferPool::new(pool_pages),
            disk: Disk::default(),
            injector: None,
        }
    }

    /// The paper's evaluation machine: a 32 MB buffer pool.
    pub fn decstation() -> Self {
        Io::new(32 * 1024 * 1024 / PAGE_BYTES as usize)
    }

    /// Touches one page (sequential/random classification by the disk).
    /// Returns `true` on a buffer hit.
    pub fn touch(&mut self, page: PageId) -> bool {
        let hit = self.pool.access(page);
        if !hit {
            self.disk.read(page);
        }
        hit
    }

    /// Touches a batch of pages in elevator order; only misses reach disk.
    /// Returns `(hits, misses)` for the batch.
    pub fn touch_elevator(&mut self, pages: &[PageId]) -> (u64, u64) {
        let mut missed: Vec<PageId> = pages
            .iter()
            .copied()
            .filter(|&p| !self.pool.access(p))
            .collect();
        let misses = missed.len() as u64;
        if !missed.is_empty() {
            self.disk.read_elevator(&mut missed);
        }
        (pages.len() as u64 - misses, misses)
    }

    /// Routes subsequent page access through a fault injector (or removes
    /// it with `None`). The executor installs the store's injector here.
    pub fn set_fault_injector(&mut self, injector: Option<FaultInjector>) {
        self.injector = injector;
    }

    /// Fallible [`Io::touch`]: consults the fault injector (if any) before
    /// the buffer pool. A faulted read charges nothing — the page is
    /// neither cached nor billed to the disk — so a retry repeats the
    /// access from scratch.
    pub fn try_touch(&mut self, page: PageId) -> Result<bool, Fault> {
        if let Some(inj) = &self.injector {
            inj.check_read(page)?;
        }
        Ok(self.touch(page))
    }

    /// Touches one page `n >= 1` times in a row — `n` consecutive objects
    /// of a scan living on it — and returns whether the first touch was a
    /// buffer hit (the rest always are). Without a fault injector this is
    /// one pool access; with one attached every touch is checked and
    /// charged on its own, as [`Io::try_touch`] would.
    pub fn try_touch_run(&mut self, page: PageId, n: u64) -> Result<bool, Fault> {
        if self.injector.is_some() {
            let first = self.try_touch(page)?;
            for _ in 1..n {
                self.try_touch(page)?;
            }
            return Ok(first);
        }
        let hit = self.pool.access_run(page, n);
        if !hit {
            self.disk.read(page);
        }
        Ok(hit)
    }

    /// Fallible [`Io::touch_elevator`]: checks every page of the batch
    /// against the injector first, then performs the whole sweep. A fault
    /// aborts before any page of the batch is charged.
    pub fn try_touch_elevator(&mut self, pages: &[PageId]) -> Result<(u64, u64), Fault> {
        if let Some(inj) = &self.injector {
            for &p in pages {
                inj.check_read(p)?;
            }
        }
        Ok(self.touch_elevator(pages))
    }

    /// Disk statistics.
    pub fn disk_stats(&self) -> DiskStats {
        self.disk.stats()
    }

    /// Buffer-pool (hits, misses) so far.
    pub fn buffer_stats(&self) -> (u64, u64) {
        self.pool.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut b = BufferPool::new(4);
        assert!(!b.access(1));
        assert!(b.access(1));
        assert_eq!(b.stats(), (1, 1));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut b = BufferPool::new(2);
        b.access(1);
        b.access(2);
        b.access(1); // 1 now more recent than 2
        b.access(3); // evicts 2
        assert!(b.access(1), "1 still resident");
        assert!(!b.access(2), "2 was evicted");
    }

    #[test]
    fn io_charges_only_misses() {
        let mut io = Io::new(8);
        io.touch(10);
        io.touch(10);
        io.touch(10);
        assert_eq!(io.disk_stats().pages(), 1);
        let (hits, misses) = io.pool.stats();
        assert_eq!((hits, misses), (2, 1));
    }

    #[test]
    fn elevator_batch_skips_resident_pages() {
        let mut io = Io::new(8);
        io.touch(5);
        let (hits, misses) = io.touch_elevator(&[5, 6, 7]);
        // Page 5 was resident; only 6 and 7 hit the disk.
        assert_eq!((hits, misses), (1, 2));
        assert_eq!(io.disk_stats().pages(), 3); // 1 initial + 2 batch
    }

    #[test]
    fn touch_reports_per_access_outcome() {
        let mut io = Io::new(8);
        assert!(!io.touch(9), "first access misses");
        assert!(io.touch(9), "second access hits");
    }

    /// A run of touches leaves hits, misses, LRU order and disk charges
    /// exactly where the same touches one by one do, cold and warm, with
    /// an eviction in between.
    #[test]
    fn touch_run_matches_single_touches() {
        let mut one = Io::new(2);
        let mut run = Io::new(2);
        for (page, n) in [(7u64, 3u64), (8, 1), (7, 2), (9, 4), (8, 2), (7, 1)] {
            let mut first = None;
            for _ in 0..n {
                first.get_or_insert(one.touch(page));
            }
            assert_eq!(run.try_touch_run(page, n), Ok(first.unwrap()));
            assert_eq!(run.pool.stats(), one.pool.stats());
            assert_eq!(run.disk_stats(), one.disk_stats());
        }
        let (a, b) = (&one.pool, &run.pool);
        assert_eq!((a.clock, &a.resident), (b.clock, &b.resident));
    }

    /// With a fault injector attached a run is checked touch by touch.
    #[test]
    fn touch_run_consults_the_injector_per_touch() {
        let inj = FaultInjector::new(oodb_fault::FaultConfig {
            read_fault_rate: 1.0,
            ..Default::default()
        });
        let mut io = Io::new(4);
        io.set_fault_injector(Some(inj.clone()));
        assert!(io.try_touch_run(3, 5).is_err());
        assert_eq!(io.pool.stats(), (0, 0), "a faulted read charges nothing");
        inj.set_enabled(false);
        assert_eq!(io.try_touch_run(3, 5), Ok(false));
        assert_eq!(io.pool.stats(), (4, 1));
    }

    #[test]
    fn pool_never_exceeds_capacity() {
        let mut b = BufferPool::new(3);
        for p in 0..100 {
            b.access(p);
        }
        assert!(b.resident.len() <= 3);
    }
}
