//! Attribute statistics: equi-depth histograms.
//!
//! The paper's first item of future work: "we will evaluate and refine the
//! 'rougher' modules, in particular selectivity and cost estimation." This
//! module is that refinement: per-attribute (or per-path) equi-depth
//! histograms the optimizer consults *before* falling back to the 1993
//! heuristics (index distinct counts, then the naïve 10%).
//!
//! A histogram stores `b` bucket boundaries over the sorted value
//! population plus the exact distinct count; equality selectivity uses
//! distinct counts within the covering bucket, range selectivity
//! interpolates over bucket positions.

use crate::value::Value;
use std::cmp::Ordering;

/// An equi-depth histogram over one attribute's population.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// `buckets + 1` boundary values: `bounds[0]` = min, `bounds[n]` = max.
    bounds: Vec<Value>,
    /// Total number of values summarized.
    total: u64,
    /// Exact number of distinct values.
    distinct: u64,
}

impl Histogram {
    /// Builds an equi-depth histogram with (up to) `buckets` buckets.
    /// Returns `None` for an empty population.
    pub fn build(mut values: Vec<Value>, buckets: usize) -> Option<Histogram> {
        if values.is_empty() {
            return None;
        }
        // Values the order calls equal are interchangeable as boundaries
        // (see `PartialEq` below), so the sort need not be stable.
        values.sort_unstable_by(Value::total_cmp_val);
        let total = values.len() as u64;
        let mut distinct = 1u64;
        for w in values.windows(2) {
            if w[0].total_cmp_val(&w[1]) != Ordering::Equal {
                distinct += 1;
            }
        }
        let buckets = buckets.clamp(1, values.len());
        let mut bounds = Vec::with_capacity(buckets + 1);
        for i in 0..=buckets {
            let idx = (i * (values.len() - 1)) / buckets;
            bounds.push(values[idx].clone());
        }
        Some(Histogram {
            bounds,
            total,
            distinct,
        })
    }

    /// Number of values summarized.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The bucket boundary values (`buckets + 1` entries, min..max).
    /// Exposed for serialization (the durability checkpoint codec).
    pub fn bounds(&self) -> &[Value] {
        &self.bounds
    }

    /// Reassembles a histogram from serialized parts. Returns `None` when
    /// the parts cannot be a [`Histogram::build`] product: fewer than two
    /// boundaries, an empty population, or more distinct values than
    /// total values.
    pub fn from_parts(bounds: Vec<Value>, total: u64, distinct: u64) -> Option<Histogram> {
        if bounds.len() < 2 || total == 0 || distinct == 0 || distinct > total {
            return None;
        }
        Some(Histogram {
            bounds,
            total,
            distinct,
        })
    }

    /// Exact distinct count.
    pub fn distinct(&self) -> u64 {
        self.distinct
    }

    /// Fraction of the population ≤ `v`, interpolated over the equi-depth
    /// bucket positions.
    pub fn fraction_le(&self, v: &Value) -> f64 {
        let n = self.bounds.len() - 1;
        if v.total_cmp_val(&self.bounds[0]) == Ordering::Less {
            return 0.0;
        }
        if v.total_cmp_val(&self.bounds[n]) != Ordering::Less {
            return 1.0;
        }
        // Find the bucket whose [lo, hi) straddles v; each holds 1/n of
        // the mass. Without intra-bucket value distribution we credit the
        // full straddled bucket's half — a standard midpoint rule.
        let mut covered = 0.0;
        for i in 0..n {
            let hi = &self.bounds[i + 1];
            match v.total_cmp_val(hi) {
                Ordering::Less => {
                    covered += 0.5 / n as f64;
                    break;
                }
                _ => covered += 1.0 / n as f64,
            }
        }
        covered.min(1.0)
    }

    /// Equality selectivity: one distinct value's share of the population,
    /// zero when `v` lies outside the observed range.
    pub fn selectivity_eq(&self, v: &Value) -> f64 {
        let n = self.bounds.len() - 1;
        if v.total_cmp_val(&self.bounds[0]) == Ordering::Less
            || v.total_cmp_val(&self.bounds[n]) == Ordering::Greater
        {
            return 0.0;
        }
        1.0 / self.distinct.max(1) as f64
    }
}

/// Equal histograms have equal counts and boundaries that
/// [`Value::total_cmp_val`] cannot tell apart — the only way the estimators
/// read them, so equal histograms give equal estimates. This is what makes
/// a statistics refresh over unchanged data a no-op.
impl PartialEq for Histogram {
    fn eq(&self, other: &Histogram) -> bool {
        self.total == other.total
            && self.distinct == other.distinct
            && self.bounds.len() == other.bounds.len()
            && self
                .bounds
                .iter()
                .zip(&other.bounds)
                .all(|(a, b)| a.total_cmp_val(b) == Ordering::Equal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(vals: impl IntoIterator<Item = i64>) -> Vec<Value> {
        vals.into_iter().map(Value::Int).collect()
    }

    #[test]
    fn uniform_population_interpolates_linearly() {
        let h = Histogram::build(ints(0..1000), 20).unwrap();
        assert_eq!(h.total(), 1000);
        assert_eq!(h.distinct(), 1000);
        let f = h.fraction_le(&Value::Int(250));
        assert!((f - 0.25).abs() < 0.06, "{f}");
        assert_eq!(h.fraction_le(&Value::Int(-5)), 0.0);
        assert_eq!(h.fraction_le(&Value::Int(10_000)), 1.0);
    }

    #[test]
    fn skewed_population_beats_uniform_assumption() {
        // 90% of the mass at small values, long tail.
        let mut vals: Vec<i64> = (0..900).map(|i| i % 10).collect();
        vals.extend((0..100).map(|i| 1000 + i));
        let h = Histogram::build(ints(vals), 20).unwrap();
        // attr < 100 covers 90% of the population; a uniform model over
        // [0, 1100) would say ~9%.
        let f = h.fraction_le(&Value::Int(100));
        assert!(f > 0.8, "equi-depth must capture the skew, got {f}");
    }

    #[test]
    fn equality_selectivity_uses_distinct_count() {
        let h = Histogram::build(ints((0..1000).map(|i| i % 50)), 10).unwrap();
        assert_eq!(h.distinct(), 50);
        assert!((h.selectivity_eq(&Value::Int(7)) - 0.02).abs() < 1e-12);
        assert_eq!(h.selectivity_eq(&Value::Int(999)), 0.0, "out of range");
    }

    #[test]
    fn string_histograms_work() {
        let vals: Vec<Value> = (0..100)
            .map(|i| Value::str(&format!("k{:03}", i % 10)))
            .collect();
        let h = Histogram::build(vals, 5).unwrap();
        assert_eq!(h.distinct(), 10);
        assert!(h.fraction_le(&Value::str("k005")) > 0.4);
    }

    /// Equality is what the estimators can see: a rebuild over the same
    /// values (in any order) is equal, a new bucket count or a `-0.0`
    /// boundary where `0.0` was is not.
    #[test]
    fn equality_follows_the_estimates() {
        let h = Histogram::build(ints(0..100), 8).unwrap();
        assert_eq!(h, Histogram::build(ints((0..100).rev()), 8).unwrap());
        assert_ne!(h, Histogram::build(ints(0..100), 9).unwrap());
        assert_ne!(h, Histogram::build(ints(1..101), 8).unwrap());
        let floats = |zero: f64| Histogram::build(vec![Value::Float(zero), Value::Float(1.0)], 1);
        assert_eq!(floats(0.0), floats(0.0));
        assert_ne!(floats(0.0), floats(-0.0));
        assert_eq!(floats(f64::NAN), floats(f64::NAN));
    }

    #[test]
    fn tiny_and_empty_populations() {
        assert!(Histogram::build(vec![], 10).is_none());
        let h = Histogram::build(ints([42]), 10).unwrap();
        assert_eq!(h.total(), 1);
        assert_eq!(h.selectivity_eq(&Value::Int(42)), 1.0);
        assert_eq!(h.fraction_le(&Value::Int(41)), 0.0);
    }
}
