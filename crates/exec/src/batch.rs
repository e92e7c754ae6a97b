//! Flat binding batches and the hash-join table built over one.

use oodb_object::Oid;

/// Rows a streaming source hands downstream at a time; run limits are
/// checked once per batch.
pub(crate) const BATCH_ROWS: usize = 1024;

/// Variable bindings for a run of rows: `rows × width` OIDs, row-major.
/// Which variable each column binds is fixed by the plan node that
/// produced the batch (its column list), not stored per row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Batch {
    /// Bound variables per row; at least one (every scan binds one).
    pub width: usize,
    /// The bindings, `width` per row.
    pub data: Vec<Oid>,
}

impl Batch {
    /// An empty batch of `width`-column rows; allocates on first push.
    pub fn new(width: usize) -> Self {
        Batch {
            width,
            data: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len() / self.width
    }

    /// The rows, in order.
    pub fn rows(&self) -> std::slice::ChunksExact<'_, Oid> {
        self.data.chunks_exact(self.width)
    }

    /// Row `r`.
    pub fn row(&self, r: usize) -> &[Oid] {
        &self.data[r * self.width..(r + 1) * self.width]
    }

    /// Drops every row not listed in `rows` (row numbers, ascending),
    /// compacting the rest in place.
    pub fn keep_rows(&mut self, rows: &[u32]) {
        let w = self.width;
        if rows.len() < self.len() {
            for (kept, &r) in rows.iter().enumerate() {
                let r = r as usize;
                self.data.copy_within(r * w..(r + 1) * w, kept * w);
            }
            self.data.truncate(rows.len() * w);
        }
    }

    /// Appends `row` with `col` bound to `oid`: overwritten when the row
    /// already has that column, appended when `col` is one past its end.
    pub fn push_bound(&mut self, row: &[Oid], col: usize, oid: Oid) {
        let start = self.data.len();
        self.data.extend_from_slice(row);
        if col == row.len() {
            self.data.push(oid);
        } else {
            self.data[start + col] = oid;
        }
    }
}

const NIL: u32 = u32::MAX;

/// Chained hash table over the build rows of a join. Keys are 64-bit
/// [`oodb_object::Value::hash_key`]s, which end in an avalanche step: a
/// bucket is the key's low bits and a chain is a linked list of row
/// numbers — no second hash and no allocation per key.
pub(crate) struct JoinTable {
    heads: Vec<u32>,
    next: Vec<u32>,
    keys: Vec<u64>,
}

impl JoinTable {
    /// Builds the table over one key per build row; rows without a key
    /// (NULL, set-valued) can never match and are left out.
    pub fn build(keys: &[Option<u64>]) -> Self {
        assert!(keys.len() < NIL as usize, "build side exceeds u32 rows");
        let mask = (keys.len() * 2).next_power_of_two() - 1;
        let mut heads = vec![NIL; mask + 1];
        let mut next = vec![NIL; keys.len()];
        // Linked back to front, so a chain lists its rows in build order.
        for (i, k) in keys.iter().enumerate().rev() {
            if let Some(k) = k {
                let bucket = *k as usize & mask;
                next[i] = heads[bucket];
                heads[bucket] = i as u32;
            }
        }
        JoinTable {
            heads,
            next,
            keys: keys.iter().map(|k| k.unwrap_or(0)).collect(),
        }
    }

    /// Build rows whose key equals `key`, in build order.
    pub fn matches(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let mut at = self.heads[key as usize & (self.heads.len() - 1)];
        std::iter::from_fn(move || {
            while at != NIL {
                let i = at as usize;
                at = self.next[i];
                if self.keys[i] == key {
                    return Some(i);
                }
            }
            None
        })
    }
}

#[cfg(test)]
/// The hash keys of 10 000 sequential oids, ints and generated names: the
/// key families joins meet, and the ones a weak mixer piles up.
pub(crate) fn sequential_key_families() -> [(&'static str, Vec<Option<u64>>); 3] {
    use oodb_object::{TypeId, Value};
    let keys = |key: fn(u32) -> Value| (0..10_000).map(|i| key(i).hash_key()).collect();
    [
        (
            "oids",
            keys(|i| Value::Ref(Oid::new(TypeId::from_index(3), i))),
        ),
        ("ints", keys(|i| Value::Int(i64::from(i)))),
        ("names", keys(|i| Value::str(&format!("p{i:05}")))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_come_back_in_build_order_and_skip_keyless_rows() {
        // Keys 5 and 13 share a bucket in an 16-bucket table.
        let keys = [Some(5), None, Some(13), Some(5), Some(7), Some(5)];
        let t = JoinTable::build(&keys);
        assert_eq!(t.matches(5).collect::<Vec<_>>(), vec![0, 3, 5]);
        assert_eq!(t.matches(13).collect::<Vec<_>>(), vec![2]);
        assert_eq!(t.matches(0).count(), 0, "a keyless row never matches");
        assert_eq!(t.matches(21).count(), 0);
        assert_eq!(JoinTable::build(&[]).matches(5).count(), 0);
    }

    /// The table trusts `hash_key`'s low bits. Sized at load ≤ 0.5, a
    /// uniform hash occupies ≈ 0.86 buckets per key and keeps chains
    /// short; a mixer that lets sequential keys pile up fails here, not
    /// as a slow join later.
    #[test]
    fn sequential_keys_spread_over_the_buckets() {
        for (what, keys) in sequential_key_families() {
            let t = JoinTable::build(&keys);
            let chain = |mut at: u32| {
                std::iter::from_fn(|| {
                    let here = (at != NIL).then_some(at)?;
                    at = t.next[here as usize];
                    Some(here)
                })
                .count()
            };
            let longest = t.heads.iter().map(|&h| chain(h)).max();
            let occupied = t.heads.iter().filter(|&&h| h != NIL).count();
            assert!(longest <= Some(8), "{what}: a chain of {longest:?}");
            assert!(
                occupied * 10 >= keys.len() * 8,
                "{what}: {occupied} buckets"
            );
        }
    }

    #[test]
    fn push_bound_overwrites_or_appends() {
        let t = oodb_object::TypeId::from_index(0);
        let o = |i| Oid::new(t, i);
        let mut wide = Batch::new(3);
        wide.push_bound(&[o(1), o(2)], 2, o(9));
        assert_eq!(wide.data, vec![o(1), o(2), o(9)]);
        let mut same = Batch::new(2);
        same.push_bound(&[o(1), o(2)], 0, o(9));
        assert_eq!(same.data, vec![o(9), o(2)]);
        assert_eq!((wide.len(), same.len()), (1, 1));
    }
}
