//! Calibration against the machine's speed at the moment of measuring.
//!
//! The sandbox this benchmark runs in alternates between a fast and a slow
//! regime (a neighbour on the same core, time the hypervisor steals): the
//! same 1000 queries take 0.83 s or 1.42 s, and the median of a run lands
//! in whichever regime held longer. Ten runs of identical code, as the
//! clock read them, spread 7% (`warm_replay`), 16% (`mixed_refresh`,
//! `wire_point`) and 55% (`cold_adhoc`) in one bad hour. A fixed kernel run
//! *between the operations* slows down by the same regimes, so the timings
//! of a repetition are divided by how slow the kernel ran during it; the
//! same runs then spread 1.7%, 3.4%, 6.6% and 8%.
//!
//! Every timing the benchmark reports is therefore in *reference* seconds
//! or microseconds: what the time would have been on a machine that runs
//! the kernel in [`REFERENCE_KERNEL_NS`]. What the clock read is reported
//! beside it.
//!
//! What the division cannot do. No kernel slows exactly as the program
//! does: over runs, `cold_adhoc`'s time rose with the kernel's to the power
//! 1.1 and `wire_point`'s (sockets and thread hand-offs more than
//! computing) to the power 0.7-0.9, so a reference time still reads some 7%
//! worse in the slow regime than in the fast. (Fitted over single
//! repetitions `wire_point`'s power reads 0.4, but that is the noise of six
//! kernel runs per repetition flattening the fit, not the machine.) And
//! the kernel, though the benchmark's own code, shares the allocator and
//! the CPU's caches with the program, so a change to the program that moves
//! either can move the kernel a little. Compare parent and change in
//! alternating pairs, as always.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// The kernel's duration on this benchmark's reference machine (the
/// 2.1 GHz Xeon sandbox in its fast regime).
pub const REFERENCE_KERNEL_NS: f64 = 1_250_000.0;

/// About a millisecond of what a query engine does: allocation, hashing,
/// an ordered map, string formatting and a sort.
pub fn kernel() -> u64 {
    let mut buckets: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut ordered: BTreeMap<String, u64> = BTreeMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for i in 0..4000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        buckets.entry(x % 512).or_default().push(x);
        ordered.insert(format!("k{:05}", x % 3000), i);
    }
    let mut all: Vec<u64> = buckets.values().flatten().copied().collect();
    all.sort_unstable();
    all.iter().step_by(7).fold(ordered.len() as u64, |acc, &v| {
        acc.wrapping_mul(31).wrapping_add(v)
    })
}

/// Kernel runs accumulated over one measured interval.
#[derive(Clone, Copy, Debug, Default)]
pub struct Speed {
    kernel_ns: u64,
    kernels: u64,
}

impl Speed {
    /// Runs the kernel once and adds what it took.
    pub fn tick(&mut self) {
        let t = Instant::now();
        std::hint::black_box(kernel());
        self.kernel_ns += t.elapsed().as_nanos() as u64;
        self.kernels += 1;
    }

    /// Seconds spent in the kernel (to take out of an enclosing interval).
    pub fn spent_s(&self) -> f64 {
        self.kernel_ns as f64 / 1e9
    }

    /// How many times slower than the reference machine the kernel ran;
    /// 1 when it never ran. Divide a raw timing by this.
    pub fn slowdown(&self) -> f64 {
        if self.kernels == 0 {
            1.0
        } else {
            self.kernel_ns as f64 / self.kernels as f64 / REFERENCE_KERNEL_NS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_speed_averages_it() {
        assert_eq!(kernel(), kernel());
        let mut speed = Speed::default();
        assert_eq!(speed.slowdown(), 1.0);
        (0..3).for_each(|_| speed.tick());
        assert_eq!(speed.kernels, 3);
        assert!(speed.slowdown() > 0.05 && speed.slowdown() < 50.0);
        assert!(
            (speed.spent_s() - speed.slowdown() * 3.0 * REFERENCE_KERNEL_NS / 1e9).abs() < 1e-9
        );
    }
}
