//! Properties of the object model's well-formedness rules over arbitrary
//! declarations: the schema builder refuses them or builds a schema whose
//! supertype chains end, and [`Catalog::check`] refuses a catalog or
//! leaves every index readable against the schema. Names come from a
//! tiny alphabet and ids run past what is declared, so duplicates and
//! dangling ids occur.

use oodb_object::paper::paper_model;
use oodb_object::{
    AttrType, CollectionDef, CollectionId, CollectionKind, FieldId, FieldKind, IndexDef, Schema,
    TypeId,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Ids of a schema of `n` types, one past the last so some dangle.
fn type_id(n: usize) -> impl Strategy<Value = TypeId> {
    (0..=n).prop_map(TypeId::from_index)
}

fn kind(n: usize) -> impl Strategy<Value = FieldKind> {
    prop_oneof![
        Just(FieldKind::Attr(AttrType::Int)),
        type_id(n).prop_map(FieldKind::Ref),
        type_id(n).prop_map(FieldKind::RefSet),
    ]
}

/// Declarations of `n` types and up to six fields.
fn declarations(n: usize) -> impl Strategy<Value = Declarations> {
    let supertype = prop_oneof![Just(None), type_id(n).prop_map(Some)];
    (
        vec(("[a-f]{1}", supertype), n),
        vec((type_id(n), "[u-z]{1}", kind(n)), 0..6),
    )
}

type Declarations = (
    Vec<(String, Option<TypeId>)>,
    Vec<(TypeId, String, FieldKind)>,
);

/// An index drawn with ids up to three past the paper schema's fields and
/// collections.
fn index() -> impl Strategy<Value = IndexDef> {
    let field = || (0..28usize).prop_map(FieldId::from_index);
    ("[pq]{1}", 0..16usize, vec(field(), 0..3), field()).prop_map(|(name, coll, path, key)| {
        IndexDef {
            name,
            collection: CollectionId::from_index(coll),
            path,
            key,
            distinct_keys: 1,
            clustered: false,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn an_accepted_schema_has_supertype_chains_that_end(
        declared in (0..5usize).prop_flat_map(declarations),
    ) {
        let (types, fields) = declared;
        let mut b = Schema::builder();
        for (name, supertype) in &types {
            b.add_type(name, *supertype);
        }
        for (owner, name, kind) in &fields {
            b.add_field(*owner, name, *kind);
        }
        let Ok(schema) = b.try_build() else {
            return Ok(());
        };
        let n = schema.type_count();
        prop_assert_eq!((n, schema.field_count()), (types.len(), fields.len()));
        for (t, _) in schema.types() {
            // Walked with a bound, so a cycle fails the case instead of
            // hanging it.
            let chain: Vec<TypeId> =
                std::iter::successors(Some(t), |&s| schema.ty(s).supertype)
                    .take(n + 1)
                    .collect();
            prop_assert!(chain.len() <= n, "{t:?} has a supertype cycle");
            prop_assert!(schema.fields_of(t).len() <= schema.field_count());
            for (u, _) in schema.types() {
                prop_assert_eq!(schema.is_subtype(t, u), chain.contains(&u));
            }
        }
    }

    /// The paper catalog, plus collections of up to two undeclared types
    /// and indexes with ids up to three past the schema and the catalog.
    #[test]
    fn an_accepted_catalog_reads_against_the_paper_schema(
        collections in vec(("[ab]{1}", 0..12usize, any::<bool>()), 0..3),
        indexes in vec(index(), 0..3),
    ) {
        let paper = paper_model();
        let mut catalog = paper.catalog;
        for (name, ty, extent) in collections {
            catalog.add_collection(CollectionDef {
                name,
                elem_type: TypeId::from_index(ty),
                kind: if extent { CollectionKind::Extent } else { CollectionKind::UserSet },
                cardinality: 1,
                obj_bytes: 8,
            });
        }
        for idx in indexes {
            catalog.add_index(idx);
        }
        if catalog.check(&paper.schema).is_err() {
            return Ok(());
        }
        for (_, idx) in catalog.indexes() {
            paper.schema.ty(catalog.collection(idx.collection).elem_type);
            for &f in idx.path.iter().chain([&idx.key]) {
                paper.schema.field(f);
            }
        }
    }
}
