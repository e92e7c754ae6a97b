//! Property-based tests for the value codec: arbitrary values survive
//! encode→decode, and truncated inputs fail cleanly.

use oodb_object::{Date, Oid, TypeId, Value};
use oodb_storage::codec::{decode_value, encode_value};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only (NaN equality would fail the roundtrip
        // comparison, and queries never produce NaN constants).
        (-1e12f64..1e12).prop_map(Value::Float),
        any::<bool>().prop_map(Value::Bool),
        "[a-zA-Z0-9 _-]{0,40}".prop_map(|s| Value::str(&s)),
        (-500_000i32..500_000).prop_map(|d| Value::Date(Date(d))),
        (0usize..32, 0u32..10_000)
            .prop_map(|(t, s)| Value::Ref(Oid::new(TypeId::from_index(t), s))),
        proptest::collection::vec((0usize..8, 0u32..1000), 0..6).prop_map(|refs| {
            let mut v: Vec<Oid> = refs
                .into_iter()
                .map(|(t, s)| Oid::new(TypeId::from_index(t), s))
                .collect();
            v.sort_unstable();
            v.dedup();
            Value::RefSet(v.into())
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn value_roundtrips(v in arb_value()) {
        let mut buf = Vec::new();
        encode_value(&v, &mut buf);
        let mut pos = 0;
        prop_assert_eq!(decode_value(&buf, &mut pos).unwrap(), v);
        prop_assert_eq!(pos, buf.len());
    }

    /// Any truncation of a valid encoding fails with an error — never a
    /// panic, never a bogus success that consumes the whole buffer.
    #[test]
    fn truncation_is_detected(v in arb_value(), cut in 0usize..64) {
        let mut buf = Vec::new();
        encode_value(&v, &mut buf);
        if cut >= buf.len() {
            return Ok(());
        }
        prop_assert!(decode_value(&buf[..cut], &mut 0).is_err());
    }
}
