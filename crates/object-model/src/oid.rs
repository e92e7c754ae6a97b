//! Object identifiers.
//!
//! Open OODB objects carry identity independent of their state. We encode an
//! OID as a `(type, sequence)` pair packed into 64 bits; the type tag lets
//! the storage manager route a dereference to the right extent without a
//! global OID directory, which matches the paper's assumption that stored
//! references are direct ("goto's on disk").

use crate::schema::TypeId;
use crate::value::push_decimal;
use std::fmt;

/// An object identifier: the unit of inter-object reference.
///
/// OIDs are value types — copying an OID copies identity, not state. Two
/// OIDs compare equal iff they denote the same object, which is exactly the
/// semantics of ZQL's `==` on object-valued expressions (the paper's
/// "comparison of department objects based on their OID's").
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oid {
    ty: TypeId,
    seq: u32,
}

impl Oid {
    /// Creates an OID for the `seq`-th object of type `ty`.
    #[inline]
    pub fn new(ty: TypeId, seq: u32) -> Self {
        Oid { ty, seq }
    }

    /// The (exact) type of the referenced object.
    #[inline]
    pub fn type_id(self) -> TypeId {
        self.ty
    }

    /// The per-type sequence number (dense from 0).
    #[inline]
    pub fn seq(self) -> u32 {
        self.seq
    }

    /// Packs the OID into a single `u64`, useful as a hash-join key.
    #[inline]
    pub fn as_u64(self) -> u64 {
        ((self.ty.index() as u64) << 32) | self.seq as u64
    }

    /// Appends the OID as it is displayed, `@type:seq`.
    pub fn write_to(self, out: &mut String) {
        out.push('@');
        push_decimal(out, self.ty.index() as u64);
        out.push(':');
        push_decimal(out, u64::from(self.seq));
    }

    /// Inverse of [`Oid::as_u64`].
    #[inline]
    pub fn from_u64(bits: u64) -> Self {
        Oid {
            ty: TypeId::from_index((bits >> 32) as u32 as usize),
            seq: bits as u32,
        }
    }
}

impl fmt::Debug for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Oid({}:{})", self.ty.index(), self.seq)
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = String::new();
        self.write_to(&mut text);
        f.write_str(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oid_roundtrips_through_u64() {
        let oid = Oid::new(TypeId::from_index(7), 123_456);
        assert_eq!(Oid::from_u64(oid.as_u64()), oid);
    }

    #[test]
    fn oid_identity_semantics() {
        let a = Oid::new(TypeId::from_index(1), 5);
        let b = Oid::new(TypeId::from_index(1), 5);
        let c = Oid::new(TypeId::from_index(2), 5);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn oid_orders_by_type_then_seq() {
        let a = Oid::new(TypeId::from_index(1), 9);
        let b = Oid::new(TypeId::from_index(2), 0);
        assert!(a < b);
    }
}
