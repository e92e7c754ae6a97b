//! Binary value codec: the compact tagged encoding the write-ahead log
//! writes a field value in — a column of an insert record, a histogram
//! bound of a catalog. Decoding is total: a count is taken from the input
//! before anything is allocated for it, and malformed bytes are a typed
//! error.

use oodb_object::{Date, Oid, Value};
use std::sync::Arc;

/// Codec errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended mid-value.
    UnexpectedEof,
    /// Unknown tag byte.
    BadTag(u8),
    /// String payload was not UTF-8.
    BadUtf8,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::BadTag(t) => write!(f, "unknown value tag {t:#x}"),
            CodecError::BadUtf8 => write!(f, "invalid utf-8 in string payload"),
        }
    }
}

impl std::error::Error for CodecError {}

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
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
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

fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], CodecError> {
    let end = pos.checked_add(n).ok_or(CodecError::UnexpectedEof)?;
    if end > buf.len() {
        return Err(CodecError::UnexpectedEof);
    }
    let s = &buf[*pos..end];
    *pos = end;
    Ok(s)
}

/// Decodes one value at `pos`, advancing it.
pub fn decode_value(buf: &[u8], pos: &mut usize) -> Result<Value, CodecError> {
    let tag = take(buf, pos, 1)?[0];
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_INT => Value::Int(i64::from_le_bytes(take(buf, pos, 8)?.try_into().unwrap())),
        TAG_FLOAT => Value::Float(f64::from_le_bytes(take(buf, pos, 8)?.try_into().unwrap())),
        TAG_BOOL_FALSE => Value::Bool(false),
        TAG_BOOL_TRUE => Value::Bool(true),
        TAG_STR => {
            let n = u32::from_le_bytes(take(buf, pos, 4)?.try_into().unwrap()) as usize;
            let bytes = take(buf, pos, n)?;
            let s = std::str::from_utf8(bytes).map_err(|_| CodecError::BadUtf8)?;
            Value::Str(Arc::from(s))
        }
        TAG_DATE => Value::Date(Date(i32::from_le_bytes(
            take(buf, pos, 4)?.try_into().unwrap(),
        ))),
        TAG_REF => Value::Ref(Oid::from_u64(u64::from_le_bytes(
            take(buf, pos, 8)?.try_into().unwrap(),
        ))),
        TAG_REFSET => {
            let n = u32::from_le_bytes(take(buf, pos, 4)?.try_into().unwrap()) as usize;
            let members = take(buf, pos, n.saturating_mul(8))?.chunks_exact(8);
            Value::RefSet(
                members
                    .map(|m| Oid::from_u64(u64::from_le_bytes(m.try_into().unwrap())))
                    .collect(),
            )
        }
        other => return Err(CodecError::BadTag(other)),
    })
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
        let mut pos = 0;
        for v in &vals {
            assert_eq!(&decode_value(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len(), "no trailing bytes");
    }

    #[test]
    fn corrupt_input_reports_errors_not_panics() {
        assert_eq!(decode_value(&[], &mut 0), Err(CodecError::UnexpectedEof));
        assert_eq!(decode_value(&[0xFF], &mut 0), Err(CodecError::BadTag(0xFF)));
        // Truncated string.
        let mut buf = Vec::new();
        encode_value(&Value::str("hello"), &mut buf);
        buf.truncate(buf.len() - 2);
        assert_eq!(decode_value(&buf, &mut 0), Err(CodecError::UnexpectedEof));
        // Invalid UTF-8.
        let mut buf = vec![TAG_STR];
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(decode_value(&buf, &mut 0), Err(CodecError::BadUtf8));
        // A set claiming more members than there are bytes left is refused
        // before anything is allocated for it.
        let mut buf = vec![TAG_REFSET];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0; 64]);
        assert_eq!(decode_value(&buf, &mut 0), Err(CodecError::UnexpectedEof));
    }
}
