//! Property-based tests for the on-disk codec: arbitrary objects survive
//! encode→page-pack→decode, and truncated inputs fail cleanly.

use oodb_object::{Date, Object, Oid, TypeId, Value};
use oodb_storage::codec::{
    decode_object, decode_value, encode_object, encode_value, pack_collection, unpack_pages,
};
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

fn arb_object(seq: u32) -> impl Strategy<Value = Object> {
    proptest::collection::vec(arb_value(), 0..8)
        .prop_map(move |slots| Object::new(Oid::new(TypeId::from_index(2), seq), slots))
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

    #[test]
    fn objects_roundtrip_through_pages(
        objs in proptest::collection::vec(arb_object(0), 1..40)
    ) {
        // Re-sequence so OIDs are distinct (packing does not require it,
        // but realistic collections have unique identity).
        let objs: Vec<Object> = objs
            .into_iter()
            .enumerate()
            .map(|(i, o)| Object::new(Oid::new(TypeId::from_index(2), i as u32), o.slots))
            .collect();
        let pages = pack_collection(objs.iter()).unwrap();
        prop_assert_eq!(unpack_pages(&pages).unwrap(), objs);
    }

    /// Any truncation of a valid encoding fails with an error — never a
    /// panic, never a bogus success that consumes the whole buffer.
    #[test]
    fn truncation_is_detected(v in arb_value(), cut in 0usize..64) {
        let obj = Object::new(Oid::new(TypeId::from_index(0), 1), vec![v]);
        let mut buf = Vec::new();
        encode_object(&obj, &mut buf);
        if cut >= buf.len() {
            return Ok(());
        }
        let truncated = &buf[..cut];
        let mut pos = 0;
        prop_assert!(decode_object(truncated, &mut pos).is_err());
    }
}

/// Persistence round trip: pack a generated collection, write the raw
/// pages to a file, read them back, and recover every object intact.
#[test]
fn pages_survive_a_trip_through_a_file() {
    use oodb_storage::codec::Page;
    use oodb_storage::{generate_paper_db, GenConfig};
    use std::io::{Read as _, Write as _};

    let (store, model) = generate_paper_db(GenConfig::small());
    let objs: Vec<Object> = store.objects_of(model.ids.city).collect();
    assert_eq!(objs.len(), store.members(model.ids.cities).len());
    let pages = pack_collection(objs.iter()).unwrap();

    let path = std::env::temp_dir().join("oodb_codec_roundtrip.pages");
    {
        let mut f = std::fs::File::create(&path).unwrap();
        for p in &pages {
            f.write_all(p.bytes()).unwrap();
        }
    }
    let mut bytes = Vec::new();
    std::fs::File::open(&path)
        .unwrap()
        .read_to_end(&mut bytes)
        .unwrap();
    std::fs::remove_file(&path).ok();

    let restored: Vec<Page> = bytes
        .chunks_exact(oodb_storage::PAGE_BYTES)
        .map(|c| Page::from_bytes(c.try_into().unwrap()))
        .collect();
    assert_eq!(restored.len(), pages.len());
    assert_eq!(unpack_pages(&restored).unwrap(), objs);
}
