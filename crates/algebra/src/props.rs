//! Logical and physical properties.
//!
//! "Logical properties are properties of an expression determined by the
//! logical operators before execution algorithms are chosen (e.g., type or
//! size of intermediate results). Physical properties depend on execution
//! algorithms selected. ... In object-oriented query processing, an
//! important property is **presence in memory**."
//!
//! Physical properties drive the Volcano search top-down: "the search
//! process considers only those subplans that can deliver the physical
//! properties that are required by the algorithm of the containing plan."

use crate::scope::VarId;
use std::fmt;

/// A set of scope variables, as a 64-bit bitset (queries are limited to 64
/// variables by [`crate::ScopeArena`]). A variable id past those 64, which
/// only a hand-built plan can name, is in no set: inserting it changes
/// nothing, and no set contains it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct VarSet(u64);

/// `v`'s bit, or none for an id past the 64 a [`VarSet`] holds. (A
/// [`VarId`] is a `u32`, so the cast is exact.)
fn bit(v: VarId) -> u64 {
    1u64.checked_shl(v.index() as u32).unwrap_or(0)
}

impl VarSet {
    /// The empty set.
    pub const EMPTY: VarSet = VarSet(0);

    /// Singleton set.
    pub fn single(v: VarId) -> Self {
        VarSet(bit(v))
    }

    /// Builds from an iterator of variables. (Not the trait method: this
    /// is an inherent constructor usable without importing `FromIterator`.)
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(vars: impl IntoIterator<Item = VarId>) -> Self {
        let mut s = VarSet::EMPTY;
        for v in vars {
            s = s.insert(v);
        }
        s
    }

    /// Set with `v` added.
    #[must_use]
    pub fn insert(self, v: VarId) -> Self {
        VarSet(self.0 | bit(v))
    }

    /// Set with `v` removed.
    #[must_use]
    pub fn remove(self, v: VarId) -> Self {
        VarSet(self.0 & !bit(v))
    }

    /// Membership test.
    pub fn contains(self, v: VarId) -> bool {
        self.0 & bit(v) != 0
    }

    /// Union.
    #[must_use]
    pub fn union(self, other: VarSet) -> Self {
        VarSet(self.0 | other.0)
    }

    /// Intersection.
    #[must_use]
    pub fn intersect(self, other: VarSet) -> Self {
        VarSet(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    #[must_use]
    pub fn difference(self, other: VarSet) -> Self {
        VarSet(self.0 & !other.0)
    }

    /// Subset test.
    pub fn is_subset(self, other: VarSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Emptiness.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of members.
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// Iterates members in index order.
    pub fn iter(self) -> impl Iterator<Item = VarId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros();
                bits &= bits - 1;
                Some(VarId::from_index(i as usize))
            }
        })
    }
}

impl fmt::Debug for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "v{}", v.index())?;
        }
        write!(f, "}}")
    }
}

/// Logical properties of an expression: which variables are in scope and
/// the estimated output cardinality.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LogicalProps {
    /// Variables in scope in the output.
    pub vars: VarSet,
    /// Estimated number of output tuples.
    pub card: f64,
    /// Estimated bytes per output tuple (drives hash-table spill
    /// estimation).
    pub bytes: f64,
}

/// A sort order: tuples ordered by one attribute of one in-scope variable
/// (ascending). "The standard example for a physical property in
/// relational query optimization is the sort order" — the 1993 prototype
/// left it out ("it supports only presence in memory"); this reproduction
/// includes it to demonstrate that the property vector extends without
/// touching the search engine.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SortSpec {
    /// The variable whose attribute orders the output.
    pub var: VarId,
    /// The ordering attribute.
    pub field: oodb_object::FieldId,
}

/// The physical property vector: presence in memory (the paper's central
/// property) plus an optional sort order (our extension).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Debug)]
pub struct PhysProps {
    /// Variables whose objects must be present in memory.
    pub in_memory: VarSet,
    /// Required/delivered tuple order, if any.
    pub order: Option<SortSpec>,
}

impl PhysProps {
    /// No requirements.
    pub const NONE: PhysProps = PhysProps {
        in_memory: VarSet::EMPTY,
        order: None,
    };

    /// Requires the given variables in memory (no ordering).
    pub fn in_memory(vars: VarSet) -> Self {
        PhysProps {
            in_memory: vars,
            order: None,
        }
    }

    /// Adds an ordering requirement.
    #[must_use]
    pub fn ordered(self, order: SortSpec) -> Self {
        PhysProps {
            order: Some(order),
            ..self
        }
    }

    /// Whether `delivered` satisfies `self` as a requirement: memory is
    /// covered and any required order is delivered exactly.
    pub fn satisfied_by(self, delivered: PhysProps) -> bool {
        self.in_memory.is_subset(delivered.in_memory)
            && match self.order {
                None => true,
                Some(o) => delivered.order == Some(o),
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VarId {
        VarId::from_index(i)
    }

    #[test]
    fn varset_algebra() {
        let a = VarSet::from_iter([v(0), v(2), v(5)]);
        let b = VarSet::from_iter([v(2), v(3)]);
        assert_eq!(a.union(b).len(), 4);
        assert_eq!(a.intersect(b), VarSet::single(v(2)));
        assert_eq!(a.difference(b), VarSet::from_iter([v(0), v(5)]));
        assert!(VarSet::single(v(2)).is_subset(a));
        assert!(!a.is_subset(b));
        assert!(a.contains(v(5)));
        assert!(!a.contains(v(1)));
    }

    #[test]
    fn varset_iteration_in_order() {
        let s = VarSet::from_iter([v(5), v(1), v(3)]);
        let got: Vec<usize> = s.iter().map(|x| x.index()).collect();
        assert_eq!(got, vec![1, 3, 5]);
    }

    #[test]
    fn varset_insert_remove_roundtrip() {
        let s = VarSet::EMPTY.insert(v(7)).insert(v(9)).remove(v(7));
        assert_eq!(s, VarSet::single(v(9)));
        assert!(s.remove(v(3)) == s, "removing absent member is a no-op");
    }

    #[test]
    fn physprops_satisfaction() {
        let req = PhysProps::in_memory(VarSet::from_iter([v(0), v(1)]));
        let exact = PhysProps::in_memory(VarSet::from_iter([v(0), v(1)]));
        let more = PhysProps::in_memory(VarSet::from_iter([v(0), v(1), v(2)]));
        let less = PhysProps::in_memory(VarSet::single(v(0)));
        assert!(req.satisfied_by(exact));
        assert!(req.satisfied_by(more), "extra delivery is fine");
        assert!(!req.satisfied_by(less));
        assert!(PhysProps::NONE.satisfied_by(less));
    }
}
