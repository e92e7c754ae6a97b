//! Runtime values.

use crate::oid::Oid;
use std::fmt;
use std::sync::Arc;

/// A calendar date, stored as days since 1900-01-01 — enough fidelity for
/// the paper's `Date lr(01,01,1992)` ADT example, with ordered comparison.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Date(pub i32);

impl Date {
    /// Builds a date from year/month/day using a simplified proleptic
    /// calendar (months of 31 days). Monotone in (y, m, d), which is all
    /// comparison predicates need.
    pub fn from_ymd(y: i32, m: u32, d: u32) -> Self {
        Date((y - 1900) * 372 + (m as i32 - 1) * 31 + (d as i32 - 1))
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let y = 1900 + self.0.div_euclid(372);
        let rem = self.0.rem_euclid(372);
        write!(f, "{y:04}-{:02}-{:02}", rem / 31 + 1, rem % 31 + 1)
    }
}

/// A comparison-operator shape shared by layers that cannot depend on the
/// algebra crate (e.g. index range scans in the storage manager). The
/// algebra's `CmpOp` converts into this losslessly.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum CmpLike {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A runtime value: the state held in one field slot of an object, or an
/// intermediate scalar produced during predicate evaluation.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// Absent / uninitialized.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Interned immutable string.
    Str(Arc<str>),
    /// Calendar date.
    Date(Date),
    /// Single-valued inter-object reference.
    Ref(Oid),
    /// Set-valued reference (a set of OIDs, deduplicated, sorted).
    RefSet(Arc<[Oid]>),
}

impl Value {
    /// Convenience constructor for strings.
    pub fn str(s: &str) -> Self {
        Value::Str(Arc::from(s))
    }

    /// The referenced OID, if this is a `Ref`.
    pub fn as_ref_oid(&self) -> Option<Oid> {
        match self {
            Value::Ref(o) => Some(*o),
            _ => None,
        }
    }

    /// The referenced OID set, if this is a `RefSet`.
    pub fn as_ref_set(&self) -> Option<&[Oid]> {
        match self {
            Value::RefSet(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if any.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string payload, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Total comparison used by predicate evaluation; `None` when the two
    /// values are not comparable (type mismatch or NULL involvement).
    pub fn partial_cmp_val(&self, other: &Value) -> Option<std::cmp::Ordering> {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a.partial_cmp(b),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Bool(a), Bool(b)) => a.partial_cmp(b),
            (Str(a), Str(b)) => a.partial_cmp(b),
            (Date(a), Date(b)) => a.partial_cmp(b),
            (Ref(a), Ref(b)) => a.partial_cmp(b),
            _ => None,
        }
    }

    /// A total order over all values: same-variant values order naturally
    /// (floats by `total_cmp`), different variants by discriminant, with
    /// `Null` first. Used by histograms and index structures.
    pub fn total_cmp_val(&self, other: &Value) -> std::cmp::Ordering {
        use Value::*;
        fn tag(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) => 2,
                Float(_) => 3,
                Date(_) => 4,
                Str(_) => 5,
                Ref(_) => 6,
                RefSet(_) => 7,
            }
        }
        match (self, other) {
            (Null, Null) => std::cmp::Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Ref(a), Ref(b)) => a.cmp(b),
            (RefSet(a), RefSet(b)) => {
                let mut ka: Vec<u64> = a.iter().map(|o| o.as_u64()).collect();
                let mut kb: Vec<u64> = b.iter().map(|o| o.as_u64()).collect();
                ka.sort_unstable();
                kb.sort_unstable();
                ka.cmp(&kb)
            }
            (a, b) => tag(a).cmp(&tag(b)),
        }
    }

    /// A 64-bit key for hash-based matching (join, partitioning), already
    /// mixed: its low bits pick a bucket directly. Agrees with
    /// [`Value::partial_cmp_val`] — values that compare `Equal` share a
    /// key, so `Int(2)`, `Float(2.0)` and `Float(-0.0)`/`Float(0.0)` meet
    /// in one bucket — and keeps the variants apart otherwise. `None` for
    /// values that equal nothing (`Null`, sets) and cannot key a table.
    pub fn hash_key(&self) -> Option<u64> {
        // The f64 image of i64: every float an `Int` can compare equal to.
        const INT_IMAGE: std::ops::RangeInclusive<f64> = -TWO_63..=TWO_63;
        const TWO_63: f64 = 9_223_372_036_854_775_808.0;
        let word = |tag, payload| mix(seed(tag), payload);
        Some(avalanche(match self {
            Value::Null | Value::RefSet(_) => return None,
            // Comparison widens ints to f64, so an int keys as the int its
            // float image rounds back to (itself, below 2^53).
            Value::Int(i) => word(1, (*i as f64) as i64 as u64),
            Value::Float(f) if f.fract() == 0.0 && INT_IMAGE.contains(f) => {
                word(1, *f as i64 as u64)
            }
            Value::Float(f) => word(2, f.to_bits()),
            Value::Bool(b) => word(3, u64::from(*b)),
            Value::Date(d) => word(4, d.0 as u64),
            Value::Ref(o) => word(5, o.as_u64()),
            Value::Str(s) => {
                let (chunks, rest) = s.as_bytes().as_chunks::<8>();
                let h = chunks
                    .iter()
                    .fold(seed(6), |h, &c| mix(h, u64::from_le_bytes(c)));
                let mut last = [0; 8];
                last[..rest.len()].copy_from_slice(rest);
                mix(mix(h, u64::from_le_bytes(last)), s.len() as u64)
            }
        }))
    }
}

fn seed(tag: u64) -> u64 {
    tag.wrapping_mul(0xD6E8_FEB8_6659_FD93)
}

/// One multiply–rotate round: the multiply carries every input bit
/// upward, the rotation brings the well-mixed high half back down.
fn mix(h: u64, word: u64) -> u64 {
    (h ^ word)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(32)
}

/// The 64-bit finalizer of MurmurHash3: every input bit reaches every
/// output bit, so sequential payloads spread over a table's low bits.
fn avalanche(mut h: u64) -> u64 {
    h = (h ^ (h >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h = (h ^ (h >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

// Plan nodes embedding constants must be hashable for memo deduplication.
// Floats compare and hash by bit pattern (NaN == NaN); queries never
// produce NaN constants, so this is safe and documented behaviour.
impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Value::Null => {}
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Bool(b) => b.hash(state),
            Value::Str(s) => s.hash(state),
            Value::Date(d) => d.0.hash(state),
            Value::Ref(o) => o.as_u64().hash(state),
            Value::RefSet(s) => {
                for o in s.iter() {
                    o.as_u64().hash(state);
                }
            }
        }
    }
}

impl Value {
    /// Appends the value as result rows, `EXPLAIN` and the wire show it —
    /// the one definition [`fmt::Display`] delegates to. Ints, oids and
    /// plain strings, which fill result rows, bypass `fmt`.
    pub fn write_to(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Int(i) => {
                if *i < 0 {
                    out.push('-');
                }
                push_decimal(out, i.unsigned_abs());
            }
            Value::Float(x) => push_fmt(out, format_args!("{x}")),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Printable ASCII without `"` or `\` is what `{:?}` leaves
            // alone between its quotes; everything else is its to escape.
            Value::Str(s)
                if s.bytes()
                    .all(|b| matches!(b, b' '..=b'~') && b != b'"' && b != b'\\') =>
            {
                out.push('"');
                out.push_str(s);
                out.push('"');
            }
            Value::Str(s) => push_fmt(out, format_args!("{s:?}")),
            Value::Date(d) => push_fmt(out, format_args!("{d}")),
            Value::Ref(o) => o.write_to(out),
            Value::RefSet(s) => {
                out.push('{');
                push_decimal(out, s.len() as u64);
                out.push_str(" refs}");
            }
        }
    }
}

/// Appends formatted text: `fmt::Write for String` never returns `Err`,
/// so there is no error to pass on.
fn push_fmt(out: &mut String, args: fmt::Arguments<'_>) {
    _ = fmt::Write::write_fmt(out, args);
}

/// Appends `n` in decimal.
pub(crate) fn push_decimal(out: &mut String, mut n: u64) {
    let mut digits = [b'0'; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] += (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = String::new();
        self.write_to(&mut text);
        f.write_str(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TypeId;

    #[test]
    fn date_ordering_matches_calendar() {
        assert!(Date::from_ymd(1992, 1, 1) < Date::from_ymd(1992, 1, 2));
        assert!(Date::from_ymd(1991, 12, 31) < Date::from_ymd(1992, 1, 1));
        assert!(Date::from_ymd(1992, 2, 1) > Date::from_ymd(1992, 1, 31));
    }

    #[test]
    fn date_displays_readably() {
        assert_eq!(Date::from_ymd(1992, 1, 1).to_string(), "1992-01-01");
    }

    #[test]
    fn value_comparisons() {
        assert_eq!(
            Value::Int(3).partial_cmp_val(&Value::Int(5)),
            Some(std::cmp::Ordering::Less)
        );
        assert_eq!(
            Value::str("a").partial_cmp_val(&Value::str("a")),
            Some(std::cmp::Ordering::Equal)
        );
        // Mixed numeric comparison is supported.
        assert_eq!(
            Value::Int(2).partial_cmp_val(&Value::Float(2.5)),
            Some(std::cmp::Ordering::Less)
        );
        // Incomparable types yield None.
        assert_eq!(Value::Int(1).partial_cmp_val(&Value::str("1")), None);
        assert_eq!(Value::Null.partial_cmp_val(&Value::Int(1)), None);
    }

    #[test]
    fn hash_key_distinguishes_types() {
        // Int(0) and Bool(false) must not collide just because both are "0".
        assert_ne!(Value::Int(0).hash_key(), Value::Bool(false).hash_key());
        assert_eq!(Value::Null.hash_key(), None);
    }

    #[test]
    fn ref_equality_is_identity() {
        let t = TypeId::from_index(0);
        let a = Value::Ref(Oid::new(t, 1));
        let b = Value::Ref(Oid::new(t, 1));
        assert_eq!(a.partial_cmp_val(&b), Some(std::cmp::Ordering::Equal));
    }
}
