//! # `oodb-object` — the Open OODB object data model
//!
//! This crate implements the data-model substrate of the Open OODB query
//! optimizer reproduction (Blakeley, McKenna, Graefe; SIGMOD 1993):
//!
//! * **Object identity** ([`Oid`]) and typed field values ([`Value`]).
//! * **Schema** ([`Schema`], [`TypeDef`], [`FieldDef`]): user-defined types
//!   with single inheritance, embedded attributes (record-field-like values
//!   that never need explicit materialization), single-valued inter-object
//!   references, and set-valued references.
//! * **Catalog** ([`Catalog`]): named collections (user-defined sets and
//!   type extents), their cardinalities and object sizes (the paper's
//!   Table 1), and index descriptors including *path indexes*
//!   ([`IndexDef`]) that drive the paper's collapse-to-index-scan rule.
//!
//! A faithful reconstruction of the paper's Table 1 schema and catalog is
//! provided by [`paper::paper_schema`] and [`paper::paper_model`].
//!
//! [`Schema`] and [`Catalog`] are cheap handles: the body sits behind one
//! `Arc`, `clone` shares it, and every mutator copies on write. Each
//! query's environment, each plan-cache entry and each prepared statement
//! therefore shares the store's snapshot instead of owning a copy, while a
//! statistics refresh or a catalog replacement still leaves them on the
//! snapshot they were planned under.
//!
//! Everything downstream — storage, algebra, optimizer, executor, and the
//! ZQL front end — consumes this crate.

#![forbid(unsafe_code)]

/// Declares a dense arena index over `u32`: `from_index`, `index`, and a
/// `Debug` that prints `Name(i)`.
macro_rules! arena_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(u32);

        impl $name {
            /// Constructs from a raw arena index.
            #[inline]
            pub fn from_index(i: usize) -> Self {
                $name(i as u32)
            }
            /// The raw arena index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

pub mod catalog;
pub mod fnv;
pub mod fx;
pub mod oid;
pub mod paper;
pub mod schema;
pub mod stats;
pub mod value;

pub use catalog::{
    Catalog, CatalogError, CollectionDef, CollectionId, CollectionKind, IndexDef, IndexId,
    IndexKind,
};
pub use oid::Oid;
pub use schema::{AttrType, FieldDef, FieldId, FieldKind, Schema, SchemaError, TypeDef, TypeId};
pub use stats::Histogram;
pub use value::{Date, Value};
