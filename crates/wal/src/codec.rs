//! The persisted byte format's one reader: field values, record fields,
//! frame headers and file headers all decode through [`Reader`].
//!
//! Everything is little-endian. A fixed-width field is read with
//! `split_first_chunk`, so its width and its bounds check are the same
//! constant; a count or a string length is checked against the remaining
//! input before anything is allocated for it. Decoding is total: malformed
//! bytes are a [`DecodeError`], never a panic.
//!
//! A value — a column entry of an insert record, a histogram bound of a
//! catalog — is one tag byte and its payload ([`encode_value`],
//! [`Reader::value`]). A log or checkpoint file opens with an 8-byte magic
//! and its base sequence as a `u64` ([`HEADER_BYTES`]).

use oodb_object::{Date, Oid, SchemaError, Value};
use std::sync::Arc;

/// Why bytes failed to decode. Decoding checks bytes; what a well-formed
/// schema and catalog are is the object model's rule, so a schema it
/// refuses is [`DecodeError::Schema`] and a catalog is checked by the store
/// that takes it ([`oodb_object::Catalog::check`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the structure was complete.
    UnexpectedEof,
    /// Unknown record, value or enum tag.
    BadTag(u8),
    /// A length prefix exceeds the remaining input (corrupt, possibly
    /// adversarial — rejected before allocating).
    BadLength,
    /// A string payload was not UTF-8.
    BadUtf8,
    /// A schema the object model refuses.
    Schema(SchemaError),
    /// Histogram parts violate `Histogram::from_parts` invariants.
    BadHistogram,
    /// Trailing bytes after a complete record.
    TrailingBytes,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "record truncated"),
            DecodeError::BadTag(t) => write!(f, "unknown tag {t:#x}"),
            DecodeError::BadLength => write!(f, "length prefix exceeds input"),
            DecodeError::BadUtf8 => write!(f, "invalid utf-8 in a string"),
            DecodeError::Schema(e) => write!(f, "schema: {e}"),
            DecodeError::BadHistogram => write!(f, "histogram parts violate invariants"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after record"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A cursor over bytes to decode. Every read either advances past what it
/// returns or fails without advancing.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { rest: buf }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (head, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or(DecodeError::UnexpectedEof)?;
        self.rest = rest;
        Ok(head)
    }

    /// The next `N` bytes, as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, rest) = self
            .rest
            .split_first_chunk()
            .ok_or(DecodeError::UnexpectedEof)?;
        self.rest = rest;
        Ok(*head)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, DecodeError> {
        self.array().map(u8::from_le_bytes)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    pub(crate) fn f64(&mut self) -> Result<f64, DecodeError> {
        self.array().map(f64::from_le_bytes)
    }

    /// A count prefix that the remaining input must be able to satisfy at
    /// `min_item_bytes` each — rejects corrupt lengths before `Vec`
    /// allocation can amplify them.
    pub(crate) fn count(&mut self, min_item_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_item_bytes.max(1)) > self.remaining() {
            return Err(DecodeError::BadLength);
        }
        Ok(n)
    }

    /// A length-prefixed name.
    pub(crate) fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(DecodeError::BadLength);
        }
        self.utf8(n).map(str::to_string)
    }

    fn utf8(&mut self, n: usize) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.take(n)?).map_err(|_| DecodeError::BadUtf8)
    }

    /// One value in the encoding [`encode_value`] writes.
    pub fn value(&mut self) -> Result<Value, DecodeError> {
        Ok(match self.u8()? {
            TAG_NULL => Value::Null,
            TAG_INT => Value::Int(i64::from_le_bytes(self.array()?)),
            TAG_FLOAT => Value::Float(self.f64()?),
            TAG_BOOL_FALSE => Value::Bool(false),
            TAG_BOOL_TRUE => Value::Bool(true),
            TAG_STR => {
                let n = self.u32()? as usize;
                Value::Str(Arc::from(self.utf8(n)?))
            }
            TAG_DATE => Value::Date(Date(i32::from_le_bytes(self.array()?))),
            TAG_REF => Value::Ref(Oid::from_u64(self.u64()?)),
            TAG_REFSET => {
                let n = self.u32()? as usize;
                let (members, _) = self.take(n.saturating_mul(8))?.as_chunks();
                Value::RefSet(
                    members
                        .iter()
                        .map(|m| Oid::from_u64(u64::from_le_bytes(*m)))
                        .collect(),
                )
            }
            other => return Err(DecodeError::BadTag(other)),
        })
    }

    /// The bytes not yet read.
    pub(crate) fn rest(self) -> &'a [u8] {
        self.rest
    }

    /// Succeeds when every byte was read.
    pub(crate) fn finish(self) -> Result<(), DecodeError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }
}

const TAG_NULL: u8 = 0x00;
const TAG_INT: u8 = 0x01;
const TAG_FLOAT: u8 = 0x02;
const TAG_BOOL_FALSE: u8 = 0x03;
const TAG_BOOL_TRUE: u8 = 0x04;
const TAG_STR: u8 = 0x05;
const TAG_DATE: u8 = 0x06;
const TAG_REF: u8 = 0x07;
const TAG_REFSET: u8 = 0x08;

/// Appends the encoding of one value.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Bool(false) => out.push(TAG_BOOL_FALSE),
        Value::Bool(true) => out.push(TAG_BOOL_TRUE),
        Value::Str(s) => {
            out.push(TAG_STR);
            put_str(out, s);
        }
        Value::Date(d) => {
            out.push(TAG_DATE);
            out.extend_from_slice(&d.0.to_le_bytes());
        }
        Value::Ref(o) => {
            out.push(TAG_REF);
            out.extend_from_slice(&o.as_u64().to_le_bytes());
        }
        Value::RefSet(set) => {
            out.push(TAG_REFSET);
            out.extend_from_slice(&(set.len() as u32).to_le_bytes());
            for o in set.iter() {
                out.extend_from_slice(&o.as_u64().to_le_bytes());
            }
        }
    }
}

/// Appends a length-prefixed string.
pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Bytes of a log or checkpoint file header: the file's magic, then the
/// base sequence.
pub const HEADER_BYTES: usize = 16;

/// Appends a file header.
pub(crate) fn put_header(out: &mut Vec<u8>, magic: &[u8; 8], base_seq: u64) {
    out.extend_from_slice(magic);
    out.extend_from_slice(&base_seq.to_le_bytes());
}

/// The base sequence of a file that opens with `magic`, or `None` when
/// the file is shorter than a header or opens with anything else.
pub(crate) fn read_header(file: &[u8], magic: &[u8; 8]) -> Option<u64> {
    let mut r = Reader::new(file);
    if r.array().ok()? != *magic {
        return None;
    }
    r.u64().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_object::TypeId;

    #[test]
    fn value_roundtrip_all_variants() {
        let vals = vec![
            Value::Null,
            Value::Int(-42),
            Value::Float(3.25),
            Value::Bool(true),
            Value::Bool(false),
            Value::str("héllo wörld"),
            Value::Date(Date::from_ymd(1992, 1, 1)),
            Value::Ref(Oid::new(TypeId::from_index(7), 99)),
            Value::RefSet(
                vec![
                    Oid::new(TypeId::from_index(1), 2),
                    Oid::new(TypeId::from_index(1), 5),
                ]
                .into(),
            ),
        ];
        let mut buf = Vec::new();
        for v in &vals {
            encode_value(v, &mut buf);
        }
        let mut r = Reader::new(&buf);
        for v in &vals {
            assert_eq!(&r.value().unwrap(), v);
        }
        assert_eq!(r.finish(), Ok(()), "no trailing bytes");
    }

    #[test]
    fn corrupt_input_reports_errors_not_panics() {
        let value = |buf: &[u8]| Reader::new(buf).value();
        assert_eq!(value(&[]), Err(DecodeError::UnexpectedEof));
        assert_eq!(value(&[0xFF]), Err(DecodeError::BadTag(0xFF)));
        // Truncated string.
        let mut buf = Vec::new();
        encode_value(&Value::str("hello"), &mut buf);
        buf.truncate(buf.len() - 2);
        assert_eq!(value(&buf), Err(DecodeError::UnexpectedEof));
        // Invalid UTF-8.
        let mut buf = vec![TAG_STR];
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(value(&buf), Err(DecodeError::BadUtf8));
        // A set claiming more members than there are bytes left is refused
        // before anything is allocated for it.
        let mut buf = vec![TAG_REFSET];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0; 64]);
        assert_eq!(value(&buf), Err(DecodeError::UnexpectedEof));
    }

    /// A failed read leaves the reader where it was.
    #[test]
    fn a_short_read_does_not_advance() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(DecodeError::UnexpectedEof));
        assert_eq!(r.take(4), Err(DecodeError::UnexpectedEof));
        assert_eq!(r.take(usize::MAX), Err(DecodeError::UnexpectedEof));
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.take(2), Ok(&[1, 2][..]));
        assert_eq!(r.finish(), Err(DecodeError::TrailingBytes));
    }
}
