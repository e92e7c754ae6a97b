//! Numbers the harness owns: the seeded generator, the Zipf-apportioned
//! operation stream, and the percentile/median pickers. Frozen here (not
//! imported from `crates/bench` or `third_party/rand`) so a refactor of
//! either cannot change what a seed means.

/// SplitMix64: 64 bits of state, one multiply-xorshift round per draw.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias at these `n` is < 2^-40).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// How many of `total` operations each of `ranks` ranks receives under
/// Zipf(`s`), by largest-remainder apportionment.
pub fn zipf_counts(ranks: usize, s: f64, total: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=ranks).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let norm: f64 = weights.iter().sum();
    let quotas: Vec<f64> = weights.iter().map(|w| w / norm * total as f64).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..ranks).collect();
    by_remainder.sort_by(|&a, &b| {
        let (ra, rb) = (quotas[a].fract(), quotas[b].fract());
        rb.partial_cmp(&ra).expect("finite quotas").then(a.cmp(&b))
    });
    let assigned: usize = counts.iter().sum();
    for &r in by_remainder.iter().take(total - assigned) {
        counts[r] += 1;
    }
    counts
}

/// A stream of `len` rank indices whose composition is exactly
/// [`zipf_counts`] and whose order is a seeded Fisher–Yates shuffle.
///
/// The composition is fixed on purpose. Drawing ranks independently would
/// let the seed change how many expensive queries a repetition holds
/// (±4% of mean cost at 1000 draws from the 58-query pool), which is
/// wider than the regression bounds; with the composition fixed, the seed
/// decides order only and two seeds measure the same work.
pub fn zipf_stream(seed: u64, ranks: usize, s: f64, len: usize) -> Vec<usize> {
    let mut stream: Vec<usize> = zipf_counts(ranks, s, len)
        .into_iter()
        .enumerate()
        .flat_map(|(rank, n)| std::iter::repeat_n(rank, n))
        .collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..stream.len()).rev() {
        stream.swap(i, rng.below(i as u64 + 1) as usize);
    }
    stream
}

/// Nearest-rank percentile of an ascending sample (`p` in 0..=1).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() as f64 - 1.0) * p).round() as usize]
}

/// Median of a sample (mean of the middle pair when even); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&s, 0.5), 51);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // One slow repetition does not move the reported value.
        assert_eq!(median(&[1.0, 1.0, 1.0, 1.0, 50.0]), 1.0);
    }

    #[test]
    fn zipf_counts_sum_and_skew() {
        let c = zipf_counts(58, 1.0, 1000);
        assert_eq!(c.iter().sum::<usize>(), 1000);
        assert!(c.windows(2).all(|w| w[0] >= w[1]), "{c:?}");
        assert!(c[0] > 200 && c[57] >= 3, "{c:?}");
    }

    #[test]
    fn zipf_stream_is_deterministic_per_seed() {
        let a = zipf_stream(7, 58, 1.0, 1000);
        assert_eq!(a, zipf_stream(7, 58, 1.0, 1000));
        let b = zipf_stream(8, 58, 1.0, 1000);
        assert_ne!(a, b);
        // Another seed reorders the same multiset of ranks.
        let (mut sa, mut sb) = (a, b);
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb);
    }
}
