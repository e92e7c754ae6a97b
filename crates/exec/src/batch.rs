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

/// Chained table over the build rows of a join: a head per slot and a
/// linked list of row numbers behind it — no second hash and no allocation
/// per key. A build side's keys decide which of two forms it takes.
pub(crate) struct JoinTable {
    heads: Vec<u32>,
    next: Vec<u32>,
    keys: Keys,
}

enum Keys {
    /// Each build row's 64-bit [`oodb_object::Value::hash_key`]. Those end
    /// in an avalanche step, so a slot is the key's low bits.
    Hashed(Vec<u64>),
    /// Every build key is an oid of one type, and an oid is already an
    /// address: a slot is its distance from `base`, the lowest of them
    /// packed ([`Oid::as_u64`]), and a chain holds one key's rows only.
    Oids { base: u64 },
}

impl JoinTable {
    /// Builds the hashed form over one key per build row; rows without a
    /// key (NULL, set-valued) can never match and are left out.
    pub fn build(keys: &[Option<u64>]) -> Self {
        let mask = (keys.len() * 2).next_power_of_two() - 1;
        let slots = keys.iter().map(|k| k.map(|k| k as usize & mask));
        let (heads, next) = Self::chain(mask + 1, slots);
        let keys = Keys::Hashed(keys.iter().map(|k| k.unwrap_or(0)).collect());
        JoinTable { heads, next, keys }
    }

    /// Builds the oid-addressed form over the key oid of each build row,
    /// when they are of one type and the table's real size — four bytes a
    /// slot and a row — fits in the `bytes` the join reserved for it. A
    /// build side that mixes subtypes, is too sparse over its span of
    /// sequence numbers, or is empty gets `None`, and is hashed.
    pub fn addressed(
        oids: impl DoubleEndedIterator<Item = Oid> + ExactSizeIterator + Clone,
        bytes: u64,
    ) -> Option<Self> {
        let ty = oids.clone().next()?.type_id();
        let (mut lo, mut hi) = (u32::MAX, 0);
        for oid in oids.clone() {
            if oid.type_id() != ty {
                return None;
            }
            (lo, hi) = (lo.min(oid.seq()), hi.max(oid.seq()));
        }
        let span = (hi - lo) as usize + 1;
        if 4 * (span + oids.len()) as u64 > bytes {
            return None;
        }
        let slots = oids.map(|oid| Some((oid.seq() - lo) as usize));
        let (heads, next) = Self::chain(span, slots);
        let base = Oid::new(ty, lo).as_u64();
        let keys = Keys::Oids { base };
        Some(JoinTable { heads, next, keys })
    }

    /// The heads of `slots` chains and each row's successor, given every
    /// build row's slot; a row without one is in no chain.
    fn chain(
        slots: usize,
        of_row: impl DoubleEndedIterator<Item = Option<usize>> + ExactSizeIterator,
    ) -> (Vec<u32>, Vec<u32>) {
        assert!(of_row.len() < NIL as usize, "build side exceeds u32 rows");
        let mut heads = vec![NIL; slots];
        let mut next = vec![NIL; of_row.len()];
        // Linked back to front, so a chain lists its rows in build order.
        for (i, slot) in of_row.enumerate().rev() {
            if let Some(slot) = slot {
                next[i] = heads[slot];
                heads[slot] = i as u32;
            }
        }
        (heads, next)
    }

    /// Whether keys are packed oids rather than `hash_key`s.
    pub fn by_oid(&self) -> bool {
        matches!(self.keys, Keys::Oids { .. })
    }

    /// Build rows whose key equals `key`, in build order.
    pub fn matches(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        // Packed oids order by type, then sequence number: one of another
        // type or outside the span lands past the last slot.
        let slot = match self.keys {
            Keys::Hashed(_) => key & (self.heads.len() as u64 - 1),
            Keys::Oids { base } => key.wrapping_sub(base),
        };
        let head = usize::try_from(slot).ok().and_then(|s| self.heads.get(s));
        let mut at = head.copied().unwrap_or(NIL);
        std::iter::from_fn(move || {
            while at != NIL {
                let i = at as usize;
                at = self.next[i];
                match &self.keys {
                    Keys::Hashed(keys) if keys[i] != key => {}
                    _ => return Some(i),
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
    use oodb_object::TypeId;

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

    #[test]
    fn oid_addressed_matches_come_back_in_build_order() {
        let (ty, other) = (TypeId::from_index(3), TypeId::from_index(4));
        let o = |seq| Oid::new(ty, seq);
        let build = [o(7), o(5), o(7), o(9), o(7)];
        let t = JoinTable::addressed(build.iter().copied(), 40).expect("5 slots, 5 rows");
        assert!(t.by_oid() && !JoinTable::build(&[Some(5)]).by_oid());
        let matches = |oid: Oid| t.matches(oid.as_u64()).collect::<Vec<_>>();
        assert_eq!(matches(o(7)), vec![0, 2, 4]);
        assert_eq!(matches(o(5)), vec![1]);
        assert_eq!(matches(o(9)), vec![3]);
        // In the span but not built, below it, above it, of other types.
        for miss in [o(6), o(4), o(0), o(10), o(u32::MAX)] {
            assert_eq!(matches(miss), vec![], "{miss:?}");
        }
        for seq in [0, 5, 7] {
            assert_eq!(matches(Oid::new(other, seq)), vec![]);
            assert_eq!(matches(Oid::new(TypeId::from_index(2), seq)), vec![]);
        }
        let mixed = [o(7), Oid::new(other, 7)];
        assert!(JoinTable::addressed(mixed.iter().copied(), u64::MAX).is_none());
        assert!(JoinTable::addressed([].iter().copied(), u64::MAX).is_none());
    }

    /// The oid-addressed form is taken exactly when its real bytes, four a
    /// slot and four a row, fit in what the join reserved: a grant's peak
    /// never depends on which form a table took.
    #[test]
    fn a_table_over_its_reservation_is_never_oid_addressed() {
        let ty = TypeId::from_index(3);
        for (rows, stride) in [(1, 1), (2, 1), (2, 99), (5, 1), (5, 3), (40, 25)] {
            // `rows` keys `stride` apart, each twice.
            let build: Vec<Oid> = (0..2 * rows)
                .map(|i| Oid::new(ty, 11 + i / 2 * stride))
                .collect();
            let real = 4 * ((rows - 1) * stride + 1 + 2 * rows) as u64;
            for bytes in [0, 1, real / 2, real - 1, real, real + 1, 100 * real] {
                let t = JoinTable::addressed(build.iter().copied(), bytes);
                assert_eq!(t.is_some(), real <= bytes, "{rows} x {stride} in {bytes}");
            }
        }
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
        let t = TypeId::from_index(0);
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
