//! Ordered indexes (attribute and path).
//!
//! A [`BuiltIndex`] is the runtime realisation of a catalog
//! [`oodb_object::IndexDef`]: an ordered map from key value to the OIDs of
//! matching collection members. Path indexes are precomputed over the whole
//! reference path, which is exactly what lets the paper's
//! collapse-to-index-scan rule answer `c.mayor.name == "Joe"` *without
//! materializing any mayor objects*.

use crate::disk::PageId;
use oodb_object::{Oid, Value};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Total-ordering wrapper over [`Value`] so values can key a `BTreeMap`:
/// the order of [`Value::total_cmp_val`].
#[derive(Clone, Debug, PartialEq)]
pub struct OrdValue(pub Value);

impl Eq for OrdValue {}

impl Ord for OrdValue {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp_val(&other.0)
    }
}

impl PartialOrd for OrdValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Fan-out assumed when estimating B-tree height and leaf page counts.
pub const INDEX_FANOUT: u64 = 256;

/// A materialised ordered index.
#[derive(Clone, Debug)]
pub struct BuiltIndex {
    map: BTreeMap<OrdValue, Vec<Oid>>,
    entries: u64,
    /// First page of the simulated leaf region (for I/O charging).
    pub first_leaf_page: PageId,
}

impl BuiltIndex {
    /// Builds an index from `(key, oid)` pairs; `first_leaf_page` anchors
    /// its simulated on-disk leaf region.
    pub fn build(pairs: impl IntoIterator<Item = (Value, Oid)>, first_leaf_page: PageId) -> Self {
        let mut map: BTreeMap<OrdValue, Vec<Oid>> = BTreeMap::new();
        let mut entries = 0u64;
        for (k, oid) in pairs {
            map.entry(OrdValue(k)).or_default().push(oid);
            entries += 1;
        }
        BuiltIndex {
            map,
            entries,
            first_leaf_page,
        }
    }

    /// All entries in key order — the full ordered scan behind the
    /// "interesting order" index alternative.
    pub fn all_ordered(&self) -> Vec<Oid> {
        self.map.values().flat_map(|v| v.iter().copied()).collect()
    }

    /// OIDs satisfying `key <op> v`, for any comparison operator — the
    /// B-tree range scan behind range-predicate index plans. Results are
    /// in key order.
    pub fn lookup_cmp(&self, op: oodb_object::value::CmpLike, v: &Value) -> Vec<Oid> {
        use oodb_object::value::CmpLike::*;
        use std::ops::Bound;
        let key = OrdValue(v.clone());
        let range: (Bound<&OrdValue>, Bound<&OrdValue>) = match op {
            Eq => (Bound::Included(&key), Bound::Included(&key)),
            Lt => (Bound::Unbounded, Bound::Excluded(&key)),
            Le => (Bound::Unbounded, Bound::Included(&key)),
            Gt => (Bound::Excluded(&key), Bound::Unbounded),
            Ge => (Bound::Included(&key), Bound::Unbounded),
            Ne => {
                // Two sweeps around the excluded key.
                let mut out: Vec<Oid> = self
                    .map
                    .range((Bound::Unbounded, Bound::Excluded(key.clone())))
                    .flat_map(|(_, v)| v.iter().copied())
                    .collect();
                out.extend(
                    self.map
                        .range((Bound::Excluded(key), Bound::<OrdValue>::Unbounded))
                        .flat_map(|(_, v)| v.iter().copied()),
                );
                return out;
            }
        };
        self.map
            .range(range)
            .flat_map(|(_, v)| v.iter().copied())
            .collect()
    }

    /// Total number of entries.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Number of distinct keys actually present.
    pub fn distinct_keys(&self) -> u64 {
        self.map.len() as u64
    }

    /// Estimated B-tree height (non-leaf levels touched per lookup).
    pub fn height(&self) -> u32 {
        let mut h = 1;
        let mut span = INDEX_FANOUT;
        while span < self.entries.max(1) {
            span = span.saturating_mul(INDEX_FANOUT);
            h += 1;
        }
        h
    }

    /// Leaf pages an equality lookup matching `n` entries touches.
    pub fn leaf_pages_for(&self, n: u64) -> u64 {
        n.div_ceil(INDEX_FANOUT).max(1)
    }

    /// Simulated pages for a lookup: root-to-leaf walk plus leaf pages,
    /// spread across the leaf region.
    pub fn lookup_pages(&self, n_matches: u64) -> Vec<PageId> {
        let mut pages = Vec::new();
        // Internal levels: one page each, placed before the leaf region.
        for lvl in 0..self.height() as u64 {
            pages.push(self.first_leaf_page.saturating_sub(lvl + 1));
        }
        for l in 0..self.leaf_pages_for(n_matches) {
            pages.push(self.first_leaf_page + l);
        }
        pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_object::value::CmpLike;
    use oodb_object::{Date, TypeId};

    fn oid(i: u32) -> Oid {
        Oid::new(TypeId::from_index(0), i)
    }

    #[test]
    fn eq_lookup_finds_all_matches() {
        let idx = BuiltIndex::build(
            vec![
                (Value::str("Joe"), oid(1)),
                (Value::str("Ann"), oid(2)),
                (Value::str("Joe"), oid(3)),
            ],
            100,
        );
        let joes = idx.lookup_cmp(CmpLike::Eq, &Value::str("Joe"));
        assert_eq!(joes.len(), 2);
        assert!(idx.lookup_cmp(CmpLike::Eq, &Value::str("Zoe")).is_empty());
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(idx.entries(), 3);
    }

    #[test]
    fn range_lookup_in_key_order() {
        let idx = BuiltIndex::build((0..10).map(|i| (Value::Int(i), oid(i as u32))), 0);
        let hits = idx.lookup_cmp(CmpLike::Ge, &Value::Int(3));
        assert_eq!(hits.len(), 7);
        assert_eq!(hits[0], oid(3));
        assert_eq!(hits[6], oid(9));
        assert_eq!(idx.lookup_cmp(CmpLike::Le, &Value::Int(6)).len(), 7);
    }

    #[test]
    fn date_keys_order_correctly() {
        let idx = BuiltIndex::build(
            vec![
                (Value::Date(Date::from_ymd(1991, 6, 1)), oid(1)),
                (Value::Date(Date::from_ymd(1992, 1, 1)), oid(2)),
                (Value::Date(Date::from_ymd(1993, 1, 1)), oid(3)),
            ],
            0,
        );
        let hits = idx.lookup_cmp(CmpLike::Ge, &Value::Date(Date::from_ymd(1992, 1, 1)));
        assert_eq!(hits, vec![oid(2), oid(3)]);
        let hits = idx.lookup_cmp(CmpLike::Lt, &Value::Date(Date::from_ymd(1992, 1, 1)));
        assert_eq!(hits, vec![oid(1)]);
    }

    #[test]
    fn height_grows_with_entries() {
        let small = BuiltIndex::build((0..10).map(|i| (Value::Int(i), oid(i as u32))), 0);
        assert_eq!(small.height(), 1);
        let big = BuiltIndex::build((0..70_000).map(|i| (Value::Int(i), oid(i as u32))), 0);
        assert_eq!(big.height(), 3);
    }

    #[test]
    fn lookup_pages_cover_internal_and_leaf() {
        let idx = BuiltIndex::build((0..1000).map(|i| (Value::Int(i % 7), oid(i as u32))), 500);
        let pages = idx.lookup_pages(300);
        // height 2 internal pages + ceil(300/256)=2 leaf pages.
        assert_eq!(pages.len(), idx.height() as usize + 2);
    }

    #[test]
    fn ordvalue_total_order_on_mixed_variants() {
        let mut keys = [
            OrdValue(Value::str("x")),
            OrdValue(Value::Int(1)),
            OrdValue(Value::Null),
            OrdValue(Value::Bool(true)),
        ];
        keys.sort();
        assert_eq!(keys[0], OrdValue(Value::Null));
        assert_eq!(keys[3], OrdValue(Value::str("x")));
    }
}
