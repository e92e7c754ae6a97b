//! Simulated disk with seek accounting.
//!
//! The paper's cost model "charges less for sequential than for random I/O",
//! and assembly's I/O cost "captures the fact that seek distances are
//! minimized" by its elevator pattern. This module is the runtime mirror of
//! those cost-model assumptions: every page read is classified as
//! sequential (next page after the previous read), random, or part of an
//! elevator-ordered batch, and simulated wall-clock time is accumulated per
//! class.

/// A physical page number. Page numbers are global across the database;
/// seek distance is proportional to page-number distance.
pub type PageId = u64;

// The paper's DECstation, the one device every cost estimate and every
// simulated read is priced on.

/// Page size in bytes: the unit of the store's layout, the buffer pool and
/// spill accounting.
pub const PAGE_BYTES: u32 = 4096;
/// Transfer time for a sequentially-next page, in seconds.
pub const SEQ_S: f64 = 0.002;
/// Seek + rotation + transfer for a random page, in seconds.
pub const RAND_S: f64 = 0.020;
/// Fraction of [`RAND_S`] charged per page of an elevator-ordered batch —
/// the discount a large assembly window earns by sweeping the arm in one
/// direction.
pub const ELEVATOR_FACTOR: f64 = 0.55;

/// Cumulative I/O statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DiskStats {
    /// Pages read sequentially.
    pub seq_reads: u64,
    /// Pages read at random-access cost.
    pub rand_reads: u64,
    /// Pages read inside elevator-ordered batches.
    pub elevator_reads: u64,
    /// Pages written to spill partitions (hash-join overflow), charged
    /// at the sequential rate.
    pub spill_writes: u64,
    /// Pages read back from spill partitions, charged at the sequential
    /// rate. Over any completed run this equals [`DiskStats::spill_writes`].
    pub spill_reads: u64,
    /// Total simulated time in seconds.
    pub total_s: f64,
}

impl DiskStats {
    /// Total pages read from base data (spill traffic excluded — see
    /// [`DiskStats::spill_pages`]).
    pub fn pages(&self) -> u64 {
        self.seq_reads + self.rand_reads + self.elevator_reads
    }

    /// Total spill pages moved (writes + re-reads).
    pub fn spill_pages(&self) -> u64 {
        self.spill_writes + self.spill_reads
    }
}

/// The simulated disk: a fresh one has read nothing and its arm is
/// nowhere.
#[derive(Clone, Debug, Default)]
pub struct Disk {
    head: Option<PageId>,
    stats: DiskStats,
}

impl Disk {
    /// Statistics so far.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Reads one page. Sequential if it directly follows the previous read;
    /// random otherwise.
    pub fn read(&mut self, page: PageId) {
        let sequential = matches!(self.head, Some(h) if page == h + 1);
        if sequential {
            self.stats.seq_reads += 1;
            self.stats.total_s += SEQ_S;
        } else {
            self.stats.rand_reads += 1;
            self.stats.total_s += RAND_S;
        }
        self.head = Some(page);
    }

    /// Reads a batch of pages in elevator order: the pages are sorted so the
    /// arm sweeps once across the region. Adjacent pages within the sweep
    /// cost a sequential transfer; gaps cost the discounted elevator rate.
    ///
    /// This is what a large assembly window buys; with a window of one the
    /// assembly operator degenerates to [`Disk::read`] per reference, "the
    /// lookup component of an unclustered index scan".
    pub fn read_elevator(&mut self, pages: &mut Vec<PageId>) {
        pages.sort_unstable();
        pages.dedup();
        let mut prev: Option<PageId> = None;
        for &p in pages.iter() {
            match prev {
                Some(q) if p == q + 1 => {
                    self.stats.seq_reads += 1;
                    self.stats.total_s += SEQ_S;
                }
                _ => {
                    self.stats.elevator_reads += 1;
                    self.stats.total_s += RAND_S * ELEVATOR_FACTOR;
                }
            }
            prev = Some(p);
        }
        if let Some(last) = prev {
            self.head = Some(last);
        }
    }

    /// Charges `pages` of spill-partition writes at the sequential rate
    /// (spill files are laid out contiguously) and moves the arm off the
    /// base data, matching the cost model's `2 · frac · pages · seq_s`
    /// write-then-reread formula for an overflowing hash join.
    pub fn spill_write(&mut self, pages: u64) {
        self.stats.spill_writes += pages;
        self.stats.total_s += pages as f64 * SEQ_S;
        self.head = None;
    }

    /// Charges `pages` of spill-partition re-reads at the sequential
    /// rate; the arm ends off the base data.
    pub fn spill_read(&mut self, pages: u64) {
        self.stats.spill_reads += pages;
        self.stats.total_s += pages as f64 * SEQ_S;
        self.head = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> Disk {
        Disk::default()
    }

    #[test]
    fn sequential_run_charged_cheaply() {
        let mut d = disk();
        for p in 100..200 {
            d.read(p);
        }
        let s = d.stats();
        // First read is random (no head position), rest sequential.
        assert_eq!(s.rand_reads, 1);
        assert_eq!(s.seq_reads, 99);
        let expected = 0.020 + 99.0 * 0.002;
        assert!((s.total_s - expected).abs() < 1e-9);
    }

    #[test]
    fn random_scatter_charged_fully() {
        let mut d = disk();
        for p in [5u64, 105, 3, 999, 42] {
            d.read(p);
        }
        assert_eq!(d.stats().rand_reads, 5);
        assert_eq!(d.stats().seq_reads, 0);
    }

    #[test]
    fn elevator_batch_is_cheaper_than_random() {
        let scattered: Vec<PageId> = (0..100).map(|i| i * 37 + 5).collect();

        let mut d1 = disk();
        for &p in &scattered {
            d1.read(p);
        }
        let mut d2 = disk();
        d2.read_elevator(&mut scattered.clone());

        assert!(d2.stats().total_s < d1.stats().total_s);
        // With the default 0.55 factor the batch costs exactly 55%.
        assert!((d2.stats().total_s / d1.stats().total_s - 0.55).abs() < 1e-9);
    }

    #[test]
    fn elevator_dedups_and_merges_adjacent() {
        let mut d = disk();
        d.read_elevator(&mut vec![10, 11, 11, 12, 50]);
        let s = d.stats();
        assert_eq!(s.pages(), 4, "duplicate page read once");
        assert_eq!(s.seq_reads, 2, "pages 11 and 12 follow 10");
        assert_eq!(s.elevator_reads, 2, "pages 10 and 50 start sweeps");
    }

    #[test]
    fn head_position_carries_across_calls() {
        let mut d = disk();
        d.read(7);
        d.read(8); // sequential
        d.read_elevator(&mut vec![9]); // elevator entry even though adjacent? no: gap rule
        let s = d.stats();
        assert_eq!(s.seq_reads, 1);
        // The batch's first page always pays the elevator rate (we don't
        // model cross-call adjacency).
        assert_eq!(s.elevator_reads, 1);
    }

    #[test]
    fn spill_traffic_is_sequential_and_moves_the_arm() {
        let mut d = disk();
        d.read(7);
        d.spill_write(10);
        d.spill_read(10);
        let s = d.stats();
        assert_eq!(s.spill_pages(), 20);
        assert_eq!(s.pages(), 1, "spill pages are not base-data reads");
        assert!((s.total_s - (0.020 + 20.0 * 0.002)).abs() < 1e-9);
        d.read(8);
        assert_eq!(
            d.stats().rand_reads,
            2,
            "spilling moved the arm; page 8 is no longer sequential"
        );
    }
}
