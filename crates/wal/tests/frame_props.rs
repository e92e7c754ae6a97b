//! Property-based adversarial testing of the WAL codec layers: values and
//! records round-trip through the canonical byte form, truncation at every
//! prefix length is a typed error, bit flips never panic, and the frame
//! reader never yields a payload that differs from what was written —
//! corruption either stops the scan or is absorbed after the last intact
//! frame, mirroring the longest-valid-prefix recovery contract.

use oodb_object::{CollectionId, Date, Oid, TypeId, Value};
use oodb_wal::codec::{encode_value, DecodeError, Reader};
use oodb_wal::frame::{read_frame, write_frame, FrameError};
use oodb_wal::record::WalRecord;
use proptest::prelude::*;
use std::sync::Arc;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        (-1.0e12f64..1.0e12).prop_map(Value::Float),
        any::<bool>().prop_map(Value::Bool),
        "[ -~]{0,24}".prop_map(|s: String| Value::str(&s)),
        (1970u16..2100, 1u8..13, 1u8..29)
            .prop_map(|(y, m, d)| Value::Date(Date::from_ymd(y as i32, m as u32, d as u32))),
        arb_oid().prop_map(Value::Ref),
        proptest::collection::vec(arb_oid(), 0..6).prop_map(|mut v| {
            v.sort();
            v.dedup();
            Value::RefSet(v.into())
        }),
    ]
}

fn arb_oid() -> impl Strategy<Value = Oid> {
    (0usize..64, any::<u32>()).prop_map(|(ty, seq)| Oid::new(TypeId::from_index(ty), seq))
}

/// Records over arbitrary payloads (`Genesis`/`SetCatalog` carry a whole
/// schema + catalog and are exercised by the unit tests over the paper
/// model; here the focus is the length-prefixed collection codecs).
fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        // Column count, column lengths and population vary independently:
        // ragged columns, empty inserts and field-less types all encode,
        // and `apply_to` is what judges them against a schema.
        (
            0usize..32,
            1u32..4096,
            0u32..16,
            proptest::collection::vec(proptest::collection::vec(arb_value(), 0..12), 0..6),
        )
            .prop_map(|(ty, obj_bytes, population, columns)| {
                WalRecord::InsertColumns {
                    ty: TypeId::from_index(ty),
                    obj_bytes,
                    population,
                    columns: columns.into_iter().map(Arc::new).collect(),
                }
            }),
        (0usize..32, proptest::collection::vec(arb_oid(), 0..48)).prop_map(|(coll, oids)| {
            WalRecord::SetMembers {
                coll: CollectionId::from_index(coll),
                oids,
            }
        }),
        any::<bool>().prop_map(|bump_epoch| WalRecord::BuildIndexes { bump_epoch }),
        any::<u32>().prop_map(|buckets| WalRecord::StatsRefresh { buckets }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// One value survives encode → decode and consumes exactly its bytes.
    #[test]
    fn value_roundtrips(v in arb_value()) {
        let mut buf = Vec::new();
        encode_value(&v, &mut buf);
        let mut r = Reader::new(&buf);
        prop_assert_eq!(r.value().unwrap(), v);
        prop_assert_eq!(r.remaining(), 0);
    }

    /// Any truncation of a valid value encoding fails with an error —
    /// never a panic, never a bogus success.
    #[test]
    fn truncation_is_detected(v in arb_value(), cut in 0usize..64) {
        let mut buf = Vec::new();
        encode_value(&v, &mut buf);
        if cut < buf.len() {
            prop_assert!(Reader::new(&buf[..cut]).value().is_err());
        }
    }

    /// encode → decode → encode is the identity on bytes: the canonical
    /// form is a fixed point, so re-encoding is a valid equality check
    /// for types without `PartialEq`.
    #[test]
    fn record_roundtrips_canonically(rec in arb_record()) {
        let bytes = rec.encode();
        let back = WalRecord::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(back.encode(), bytes);
    }

    /// Every strict prefix of a valid record is a typed decode error —
    /// the codec can never mistake a torn record for a whole one.
    #[test]
    fn every_truncation_is_a_typed_error(rec in arb_record(), cut in any::<u16>()) {
        let bytes = rec.encode();
        let cut = cut as usize % bytes.len().max(1);
        if cut < bytes.len() {
            prop_assert!(WalRecord::decode(&bytes[..cut]).is_err());
        }
    }

    /// A flipped bit never panics the decoder: it yields a typed error
    /// or a well-formed record (flips in value bytes change the payload).
    /// Either way the result re-encodes to a stable canonical form — no
    /// partially-corrupt record ever escapes the codec.
    #[test]
    fn bit_flips_never_panic(rec in arb_record(), at in any::<u16>(), bit in 0u8..8) {
        let mut bytes = rec.encode();
        let at = at as usize % bytes.len();
        bytes[at] ^= 1 << bit;
        if let Ok(back) = WalRecord::decode(&bytes) {
            let canon = back.encode();
            prop_assert_eq!(WalRecord::decode(&canon).expect("canonical form decodes").encode(), canon);
        }
    }

    /// Hostile bytes (not derived from any record) decode to a typed
    /// error without panicking or over-allocating.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = WalRecord::decode(&bytes);
    }

    /// Frame streams: whatever prefix of the file survives, the reader
    /// returns exactly the payloads whose frames are intact, in order,
    /// and reports the tear instead of inventing data.
    #[test]
    fn truncated_frame_stream_yields_exact_prefix(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..8),
        cut in any::<u16>(),
    ) {
        let mut buf = Vec::new();
        let mut ends = Vec::new();
        for p in &payloads {
            write_frame(&mut buf, p);
            ends.push(buf.len());
        }
        let cut = cut as usize % (buf.len() + 1);
        let buf = &buf[..cut];
        let whole = ends.iter().take_while(|&&e| e <= cut).count();
        let mut pos = 0;
        for expect in payloads.iter().take(whole) {
            match read_frame(buf, &mut pos) {
                Ok(Some(p)) => prop_assert_eq!(p, &expect[..]),
                other => prop_assert!(false, "intact frame misread: {:?}", other),
            }
        }
        // Past the intact prefix: clean end or a torn tail, never data.
        match read_frame(buf, &mut pos) {
            Ok(None) | Err(FrameError::Truncated) => {}
            other => prop_assert!(false, "tail must end or tear: {:?}", other),
        }
    }

    /// A bit flip anywhere in a frame stream never panics the reader and
    /// never corrupts a payload that precedes the flip.
    #[test]
    fn flipped_frame_stream_never_yields_wrong_prefix(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..8),
        at in any::<u16>(),
        bit in 0u8..8,
    ) {
        let mut buf = Vec::new();
        let mut ends = Vec::new();
        for p in &payloads {
            write_frame(&mut buf, p);
            ends.push(buf.len());
        }
        let at = at as usize % buf.len();
        buf[at] ^= 1 << bit;
        let untouched = ends.iter().take_while(|&&e| e <= at).count();
        let mut pos = 0;
        let mut read = 0usize;
        while let Ok(Some(p)) = read_frame(&buf, &mut pos) {
            if read < untouched {
                prop_assert_eq!(p, &payloads[read][..]);
            }
            read += 1;
        }
        prop_assert!(read >= untouched, "flip at {at} lost an intact frame");
    }
}

/// Decode must also reject records whose trailing bytes extend a valid
/// record — a frame carries exactly one record.
#[test]
fn trailing_garbage_after_valid_record_is_rejected() {
    let mut bytes = WalRecord::StatsRefresh { buckets: 9 }.encode();
    bytes.push(0);
    assert_eq!(
        WalRecord::decode(&bytes).unwrap_err(),
        DecodeError::TrailingBytes
    );
}
