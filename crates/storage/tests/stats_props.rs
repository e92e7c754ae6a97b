//! A statistics refresh skips collection when the store is stamped as
//! collected at the same bucket count over the same data and index set.
//! Property: after any sequence of membership changes, index builds,
//! index restrictions and refreshes, each refresh leaves the store holding
//! exactly the histograms and epoch a fresh collection at its bucket count
//! gives, and every histogram it holds, indexed or not, is the one a
//! fresh build over its path gives.

use oodb_object::{
    AttrType, Catalog, CollectionDef, CollectionId, CollectionKind, FieldKind, Histogram, IndexDef,
    Oid, Schema, Value,
};
use oodb_storage::datagen::columns;
use oodb_storage::Store;
use proptest::prelude::*;

const OBJECTS: usize = 48;
const INDEXES: [&str; 3] = ["Ts_x", "Ts_y", "S_x"];

#[derive(Clone, Debug)]
enum Step {
    /// `set_members` of the extent (false) or the user set (true) to the
    /// objects whose flag is set.
    Members(bool, Vec<bool>),
    /// `try_rebuild_indexes`: the indexes are current again, with no refresh
    /// since the change that made them stale.
    Build,
    /// `set_catalog` keeping the indexes whose bit is set, from the
    /// store's own catalog (histograms kept) or from the starting one
    /// (histograms dropped), with an epoch-bumping index build or without.
    Restrict {
        keep: u8,
        from_current: bool,
        build: bool,
    },
    /// `try_refresh_statistics` at 4, 8 or 16 buckets.
    Refresh(usize),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (
            any::<bool>(),
            proptest::collection::vec(any::<bool>(), OBJECTS)
        )
            .prop_map(|(set, pick)| Step::Members(set, pick)),
        Just(Step::Build),
        (0u8..8, any::<bool>(), any::<bool>()).prop_map(|(keep, from_current, build)| {
            Step::Restrict {
                keep,
                from_current,
                build,
            }
        }),
        // Twice, so half the steps refresh and a repeat at one bucket
        // count, the refresh that skips, comes often.
        (0usize..3).prop_map(|i| Step::Refresh(4 << i)),
        (0usize..3).prop_map(|i| Step::Refresh(4 << i)),
    ]
}

/// Type `T(x, y)`, its extent `Ts` and a user set `S`, each of the three
/// indexes declared; every object in both collections.
fn small_store() -> (Store, [CollectionId; 2], Vec<Oid>) {
    let mut b = Schema::builder();
    let t = b.add_type("T", None);
    let x = b.add_field(t, "x", FieldKind::Attr(AttrType::Int));
    let y = b.add_field(t, "y", FieldKind::Attr(AttrType::Int));
    let mut cat = Catalog::new();
    let mut collection = |name: &str, kind| {
        cat.add_collection(CollectionDef {
            name: name.into(),
            elem_type: t,
            kind,
            cardinality: OBJECTS as u64,
            obj_bytes: 200,
        })
    };
    let colls = [
        collection("Ts", CollectionKind::Extent),
        collection("S", CollectionKind::UserSet),
    ];
    for (name, coll, key) in [("Ts_x", 0, x), ("Ts_y", 0, y), ("S_x", 1, x)] {
        cat.add_index(IndexDef {
            name: name.into(),
            collection: colls[coll],
            path: vec![],
            key,
            distinct_keys: 8,
            clustered: false,
        });
    }
    let mut store = Store::new(b.build(), cat);
    let values = columns(OBJECTS as u64, |i| {
        [Value::Int(i as i64 % 5), Value::Int((i * 7 % 13) as i64)]
    });
    store.insert_columns(t, OBJECTS, values, 200).unwrap();
    let oids: Vec<Oid> = (0..OBJECTS as u32).map(|i| Oid::new(t, i)).collect();
    for coll in colls {
        store.set_members(coll, oids.clone()).unwrap();
    }
    (store, colls, oids)
}

/// The catalog's histograms in a canonical order, rendered for equality.
fn histograms(catalog: &Catalog) -> Vec<String> {
    let mut out: Vec<String> = catalog
        .histograms()
        .map(|(key, h)| format!("{key:?} {h:?}"))
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_stamped_store_holds_what_a_fresh_collection_gives(
        steps in proptest::collection::vec(step(), 1..24)
    ) {
        let (mut store, colls, oids) = small_store();
        let start = store.catalog().clone();
        for step in &steps {
            match step {
                Step::Members(set, pick) => {
                    let members = oids.iter().zip(pick).filter(|(_, &p)| p);
                    let members = members.map(|(&o, _)| o).collect();
                    store.set_members(colls[usize::from(*set)], members).unwrap();
                }
                Step::Build => store.try_rebuild_indexes(true).unwrap(),
                Step::Restrict { keep, from_current, build } => {
                    let keep: Vec<&str> = INDEXES
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| keep & (1 << i) != 0)
                        .map(|(_, &name)| name)
                        .collect();
                    let from = if *from_current { store.catalog() } else { &start };
                    store.set_catalog(from.with_only_indexes(&keep)).unwrap();
                    if *build {
                        store.try_rebuild_indexes(true).unwrap();
                    }
                }
                Step::Refresh(buckets) => {
                    let before = store.catalog().stats_epoch();
                    let moved = store.try_refresh_statistics(*buckets).unwrap();
                    prop_assert_eq!(moved, store.catalog().stats_epoch() != before);
                    // Stamped now, whether this refresh collected or not.
                    let fresh = store.try_collect_statistics(&[], *buckets).unwrap();
                    prop_assert_eq!(fresh.stats_epoch(), store.catalog().stats_epoch());
                    prop_assert_eq!(histograms(&fresh), histograms(store.catalog()));
                    for ((coll, path, key), held) in store.catalog().histograms() {
                        let values = store.members(coll).iter();
                        let values = values.map(|&o| store.try_eval_path(o, path, key));
                        let values = values.collect::<Result<Vec<_>, _>>().unwrap();
                        let built = Histogram::build(values, *buckets);
                        prop_assert_eq!(Some(held), built.as_ref());
                    }
                }
            }
        }
    }
}
