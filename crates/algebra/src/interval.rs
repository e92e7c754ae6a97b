//! Interval cardinality bounds.
//!
//! A [`CardInterval`] is a sound `[lo, hi]` bound on the number of rows an
//! operator can produce, derived from catalog statistics and operator
//! semantics alone — never from selectivity guesses. Estimates live
//! *inside* their interval when the cost model is feasible; measured row
//! counts live inside it when the statistics are fresh. The plan auditor
//! (`oodb-verify`) propagates intervals bottom-up through logical and
//! physical plans and flags anything that escapes its bound: an estimate
//! outside `[lo, hi]` is a cost-model bug, an *actual* count outside it is
//! stale statistics — the static half of feedback-driven re-optimization.

use std::fmt;

/// Relative slack used by [`CardInterval::contains`]: estimates are chains
/// of `f64` arithmetic, so exact endpoint comparisons would trip on
/// rounding.
pub const INTERVAL_SLACK: f64 = 1e-6;

/// A closed interval `[lo, hi]` of row counts (`hi` may be `+∞`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CardInterval {
    /// Smallest row count the operator can produce.
    pub lo: f64,
    /// Largest row count the operator can produce (`f64::INFINITY` when no
    /// bound is derivable, e.g. below an unnest of unknown fan-out).
    pub hi: f64,
}

impl CardInterval {
    /// The vacuous bound `[0, ∞)`.
    pub const UNBOUNDED: CardInterval = CardInterval {
        lo: 0.0,
        hi: f64::INFINITY,
    };

    /// A new interval. `lo` is clamped into `[0, hi]` so a malformed
    /// construction degrades to a weaker (still sound) bound rather than
    /// an inverted one.
    pub fn new(lo: f64, hi: f64) -> Self {
        let hi = hi.max(0.0);
        CardInterval {
            lo: lo.max(0.0).min(hi),
            hi,
        }
    }

    /// The degenerate interval `[n, n]` — the count is known exactly.
    pub fn exact(n: f64) -> Self {
        Self::new(n, n)
    }

    /// `[0, hi]` — only an upper bound is derivable.
    pub fn at_most(hi: f64) -> Self {
        Self::new(0.0, hi)
    }

    /// Drops the lower bound: `[0, hi]`. A selective operator (filter,
    /// join predicate) can eliminate every row, whatever its input
    /// guarantees.
    #[must_use]
    pub fn relax_lo(self) -> Self {
        CardInterval { lo: 0.0, ..self }
    }

    /// Caps the upper bound at `hi` (containment argument: e.g. a
    /// reference equi-join against a distinct build side emits at most one
    /// row per probe row).
    #[must_use]
    pub fn cap(self, hi: f64) -> Self {
        Self::new(self.lo.min(hi), self.hi.min(hi))
    }

    /// Interval of a cross product: `[lo·lo, hi·hi]`. An empty side wins
    /// over an unbounded one (`0 · ∞ = 0` here: zero input rows mean zero
    /// output rows whatever the other side could produce).
    #[must_use]
    pub fn cross(self, other: Self) -> Self {
        fn mul(a: f64, b: f64) -> f64 {
            if a == 0.0 || b == 0.0 {
                0.0
            } else {
                a * b
            }
        }
        Self::new(mul(self.lo, other.lo), mul(self.hi, other.hi))
    }

    /// Interval of a disjoint concatenation: `[lo+lo, hi+hi]`.
    #[must_use]
    pub fn sum(self, other: Self) -> Self {
        Self::new(self.lo + other.lo, self.hi + other.hi)
    }

    /// Whether `x` lies inside the interval, allowing
    /// [`INTERVAL_SLACK`]-relative rounding at both endpoints. Non-finite
    /// `x` is never inside (a NaN estimate is a violation, not a wildcard).
    pub fn contains(self, x: f64) -> bool {
        if !x.is_finite() {
            return false;
        }
        let lo_ok = x >= self.lo * (1.0 - INTERVAL_SLACK) - INTERVAL_SLACK;
        let hi_ok = self.hi.is_infinite() || x <= self.hi * (1.0 + INTERVAL_SLACK) + INTERVAL_SLACK;
        lo_ok && hi_ok
    }
}

impl fmt::Display for CardInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hi.is_infinite() {
            write!(f, "[{}, ∞)", self.lo)
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_clamp() {
        let i = CardInterval::new(5.0, 3.0);
        assert!(i.lo <= i.hi, "inverted bounds degrade, never invert: {i}");
        let e = CardInterval::exact(7.0);
        assert_eq!((e.lo, e.hi), (7.0, 7.0));
        assert_eq!(CardInterval::at_most(9.0).lo, 0.0);
    }

    #[test]
    fn containment_with_slack() {
        let i = CardInterval::new(10.0, 100.0);
        assert!(i.contains(10.0) && i.contains(100.0));
        assert!(i.contains(100.0 + 5e-5), "slack admits rounding");
        assert!(!i.contains(101.0));
        assert!(!i.contains(9.0));
        assert!(!i.contains(f64::NAN));
        assert!(CardInterval::UNBOUNDED.contains(1e18));
        assert!(!CardInterval::UNBOUNDED.contains(f64::INFINITY));
    }

    #[test]
    fn algebra() {
        let a = CardInterval::new(2.0, 4.0);
        let b = CardInterval::new(3.0, 5.0);
        assert_eq!(a.cross(b), CardInterval::new(6.0, 20.0));
        assert_eq!(a.sum(b), CardInterval::new(5.0, 9.0));
        assert_eq!(a.relax_lo(), CardInterval::new(0.0, 4.0));
        assert_eq!(a.cap(3.0), CardInterval::new(2.0, 3.0));
        assert_eq!(b.cap(2.0), CardInterval::new(2.0, 2.0));
    }

    #[test]
    fn display_and_information() {
        assert_eq!(CardInterval::new(1.0, 8.0).to_string(), "[1, 8]");
        assert_eq!(CardInterval::UNBOUNDED.to_string(), "[0, ∞)");
    }
}
