//! The object store: typed objects in dense page regions, collections,
//! and OID dereference.
//!
//! Layout model ("objects in user-defined sets and type extents are assumed
//! to be densely packed on pages"): every type owns one contiguous page
//! region in which its instances are packed in OID order. A type's extent
//! scans the whole region; a user-defined set whose members form a prefix
//! of the region (how the generator lays them out) scans a dense prefix.
//! Dereferencing an OID maps to an exact page in O(1) — a stored reference
//! is literally a "goto on disk".
//!
//! The regions are what I/O is charged against. The values themselves are
//! held one column per field per type ([`Store::try_column`]), the one
//! form an object has from [`Store::insert_columns`] to the write-ahead
//! log ([`Store::columns_of`]).
//!
//! The store owns its rules: each mutator checks its own preconditions
//! and refuses with a [`StoreError`], leaving the store unchanged, so the
//! generator, the live write path and log replay cannot disagree on what
//! a valid change is.

use crate::disk::{PageId, PAGE_BYTES};
use crate::index::BuiltIndex;
use oodb_object::{
    Catalog, CatalogError, CollectionId, FieldId, IndexId, Oid, Schema, TypeId, Value,
};
use std::sync::Arc;

/// "No slot" marker in the dense `[type][field]` layout table.
const NO_SLOT: u32 = u32::MAX;

/// Page region of one type.
#[derive(Clone, Copy, Debug)]
struct Region {
    first_page: PageId,
    objs_per_page: u32,
    /// The per-object byte size the region was packed at, kept so a
    /// durability checkpoint can replay the original insert and land on
    /// identical page geometry.
    obj_bytes: u32,
}

/// Why the store refused a read or a mutation. The executor and WAL
/// replay see these as values, so a corrupt log record degrades to a query
/// or recovery error, never a process abort.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// An OID referenced an object the store does not hold (dangling
    /// reference — out-of-range type or sequence).
    UnknownOid(Oid),
    /// The OID's type has no storage region (never populated).
    NoRegion(TypeId),
    /// The field is not part of the type's layout.
    UnknownField {
        /// The type whose layout was consulted.
        ty: TypeId,
        /// The field that is not on it.
        field: FieldId,
    },
    /// A path link held a non-reference value (schema/data mismatch).
    NotARef {
        /// The object whose link field was read.
        oid: Oid,
        /// The link field.
        field: FieldId,
    },
    /// An insert named a type outside the schema.
    UnknownType(TypeId),
    /// An insert for a type that already owns a region.
    TypeAlreadyPopulated(TypeId),
    /// An insert did not hold one column per field of the type's layout,
    /// each as long as the population.
    ColumnShape(TypeId),
    /// A membership change named a collection outside the catalog.
    UnknownCollection(CollectionId),
    /// A catalog replacement changed the collection count (membership is
    /// sized when the store is made).
    CatalogShape {
        /// Collections in the store's current catalog.
        have: usize,
        /// Collections in the arriving catalog.
        got: usize,
    },
    /// A catalog that breaks a rule of the object model over the store's
    /// schema ([`Catalog::check`]).
    Catalog(CatalogError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::UnknownOid(oid) => write!(f, "dangling reference: {oid:?}"),
            StoreError::NoRegion(ty) => write!(f, "type {ty:?} has no storage region"),
            StoreError::UnknownField { ty, field } => {
                write!(f, "field {field:?} not on type {ty:?}")
            }
            StoreError::NotARef { oid, field } => {
                write!(
                    f,
                    "path link {field:?} on {oid:?} is not a single-valued reference"
                )
            }
            StoreError::UnknownType(ty) => write!(f, "unknown type {ty:?}"),
            StoreError::TypeAlreadyPopulated(ty) => write!(f, "type {ty:?} already populated"),
            StoreError::ColumnShape(ty) => write!(f, "columns do not fit the layout of {ty:?}"),
            StoreError::UnknownCollection(c) => write!(f, "unknown collection {c:?}"),
            StoreError::CatalogShape { have, got } => {
                write!(f, "catalog reshapes collections ({have} -> {got})")
            }
            StoreError::Catalog(e) => write!(f, "catalog: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// The instances of one type, column-major: one value vector per field
/// slot, each in OID order. Columns never change after the insert that
/// made them, so a cloned store shares them — the `Arc` wraps the very
/// vector the loader filled, because copying it into an `Arc<[Value]>`
/// showed in set-up time at 1/100 scale.
#[derive(Clone, Debug)]
struct Columns {
    population: usize,
    by_slot: Vec<Arc<Vec<Value>>>,
}

/// The in-memory database: schema + catalog + objects + indexes.
#[derive(Clone, Debug)]
pub struct Store {
    schema: Schema,
    catalog: Catalog,
    /// Field columns per type, indexed by `TypeId`.
    columns: Vec<Columns>,
    regions: Vec<Option<Region>>,
    /// Collection membership in storage order, indexed by `CollectionId`.
    members: Vec<Vec<Oid>>,
    /// Built indexes, parallel to `catalog.indexes()`.
    indexes: Vec<BuiltIndex>,
    /// Whether `indexes` describe the data: set by an index build, cleared
    /// by every change an index could see (`insert_columns`,
    /// `set_members`, `set_catalog`). A statistics refresh rebuilds the
    /// indexes only when this is false.
    indexes_current: bool,
    /// The bucket count of the last statistics collection over the
    /// current data and index set: cleared wherever `indexes_current` is,
    /// set by a refresh. A refresh at the stamped count over current
    /// indexes would collect the histograms the catalog already holds, so
    /// it collects nothing.
    stats_current: Option<usize>,
    /// Dense `[type][field] -> slot` table ([`NO_SLOT`] where the field
    /// is not on the type): a field read is two indexed loads, no hashing.
    slots: Vec<Vec<u32>>,
    next_page: PageId,
}

impl Store {
    /// Creates an empty store for a schema and catalog. Populate with
    /// [`Store::insert_columns`] and [`Store::set_members`], then call
    /// [`Store::try_rebuild_indexes`].
    pub fn new(schema: Schema, catalog: Catalog) -> Self {
        let n_types = schema.type_count();
        let n_colls = catalog.collections().count();
        let mut slots = vec![vec![NO_SLOT; schema.field_count()]; n_types];
        let mut columns = Vec::with_capacity(n_types);
        for (ty, _) in schema.types() {
            let fields = schema.fields_of(ty);
            for (slot, f) in fields.iter().enumerate() {
                slots[ty.index()][f.index()] = slot as u32;
            }
            columns.push(Columns {
                population: 0,
                by_slot: fields.iter().map(|_| Arc::default()).collect(),
            });
        }
        Store {
            schema,
            catalog,
            columns,
            regions: vec![None; n_types],
            members: vec![Vec::new(); n_colls],
            indexes: Vec::new(),
            indexes_current: false,
            stats_current: None,
            slots,
            next_page: 0,
        }
    }

    /// [`Store::new`] for a catalog that arrives from outside, as a log's
    /// `Genesis` does: refuses one that [`Catalog::check`] refuses.
    pub fn try_new(schema: Schema, catalog: Catalog) -> Result<Self, StoreError> {
        catalog.check(&schema).map_err(StoreError::Catalog)?;
        Ok(Store::new(schema, catalog))
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Replaces the catalog (index-availability sweeps). The caller must
    /// rebuild the indexes afterwards ([`Store::try_rebuild_indexes`]).
    /// The statistics epoch stays monotonic across the swap so plans
    /// cached under the old catalog can never be served against the new
    /// one. A catalog with a different collection count, or one that
    /// [`Catalog::check`] refuses, is refused.
    pub fn set_catalog(&mut self, catalog: Catalog) -> Result<(), StoreError> {
        let (have, got) = (self.members.len(), catalog.collections().count());
        if have != got {
            return Err(StoreError::CatalogShape { have, got });
        }
        catalog.check(&self.schema).map_err(StoreError::Catalog)?;
        let floor = self.catalog.stats_epoch() + 1;
        self.catalog = catalog;
        self.catalog.raise_stats_epoch_to(floor);
        self.indexes.clear();
        self.indexes_current = false;
        self.stats_current = None;
        Ok(())
    }

    /// Bulk-inserts the `population` instances of one type, accounting
    /// them to a fresh page region at `obj_bytes` per object. They arrive
    /// column-major — one value vector per field of the type's layout, each
    /// holding every instance's value in OID order — as vectors (the
    /// generator) or as columns another store already shares (replay of a
    /// checkpoint). Refuses a type outside the schema, a second insert for
    /// a type, and columns that do not fit its layout.
    pub fn insert_columns(
        &mut self,
        ty: TypeId,
        population: usize,
        columns: Vec<impl Into<Arc<Vec<Value>>>>,
        obj_bytes: u32,
    ) -> Result<(), StoreError> {
        let (Some(region), Some(own)) = (
            self.regions.get_mut(ty.index()),
            self.columns.get_mut(ty.index()),
        ) else {
            return Err(StoreError::UnknownType(ty));
        };
        if region.is_some() {
            return Err(StoreError::TypeAlreadyPopulated(ty));
        }
        let by_slot: Vec<Arc<Vec<Value>>> = columns.into_iter().map(Into::into).collect();
        if by_slot.len() != own.by_slot.len() || by_slot.iter().any(|c| c.len() != population) {
            return Err(StoreError::ColumnShape(ty));
        }
        let per_page = (PAGE_BYTES / obj_bytes.max(1)).max(1);
        let pages = (population as u64).div_ceil(per_page as u64);
        *region = Some(Region {
            first_page: self.next_page,
            objs_per_page: per_page,
            obj_bytes,
        });
        self.next_page += pages.max(1);
        *own = Columns {
            population,
            by_slot,
        };
        self.indexes_current = false;
        self.stats_current = None;
        Ok(())
    }

    /// The populated types in page-allocation order, each with the
    /// per-object byte size its region was packed at: inserting their
    /// columns again in this order, at these sizes, lands every region on
    /// the pages it has here — what a checkpoint records.
    pub fn regions(&self) -> impl Iterator<Item = (TypeId, u32)> {
        let mut populated: Vec<(PageId, TypeId, u32)> = self
            .regions
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.map(|r| (r.first_page, TypeId::from_index(i), r.obj_bytes)))
            .collect();
        populated.sort_unstable();
        populated.into_iter().map(|(_, ty, bytes)| (ty, bytes))
    }

    /// Every column of a type in layout order
    /// ([`oodb_object::Schema::fields_of`]), shared rather than copied —
    /// what a checkpoint logs. Zero-length columns for an unpopulated type.
    pub fn columns_of(&self, ty: TypeId) -> &[Arc<Vec<Value>>] {
        &self.columns[ty.index()].by_slot
    }

    /// One field of every instance of exact type `ty`, in OID order: the
    /// value of object `seq` is element `seq`. Empty for unpopulated
    /// types.
    pub fn try_column(&self, ty: TypeId, field: FieldId) -> Result<&[Value], StoreError> {
        let slot = self.try_slot(ty, field)?;
        Ok(&self.columns[ty.index()].by_slot[slot])
    }

    /// Sets a collection's membership (storage order). A collection
    /// outside the catalog is refused.
    pub fn set_members(&mut self, coll: CollectionId, oids: Vec<Oid>) -> Result<(), StoreError> {
        let members = self
            .members
            .get_mut(coll.index())
            .ok_or(StoreError::UnknownCollection(coll))?;
        *members = oids;
        self.indexes_current = false;
        self.stats_current = None;
        Ok(())
    }

    /// Members of a collection, in storage order.
    pub fn members(&self, coll: CollectionId) -> &[Oid] {
        &self.members[coll.index()]
    }

    /// Number of stored instances of a type.
    pub fn population(&self, ty: TypeId) -> usize {
        self.columns[ty.index()].population
    }

    /// The page an object lives on; a type with no storage region is an
    /// error.
    pub fn try_page_of(&self, oid: Oid) -> Result<PageId, StoreError> {
        let ty = oid.type_id();
        let r = self
            .regions
            .get(ty.index())
            .copied()
            .flatten()
            .ok_or(StoreError::NoRegion(ty))?;
        Ok(r.first_page + (oid.seq() / r.objs_per_page) as u64)
    }

    /// The page `oids[0]` lives on and how many leading objects of `oids`
    /// live on it too — what a scan hands [`crate::Io::try_touch_run`] so
    /// a page costs one pool access. `oids` must be non-empty.
    pub fn try_page_run(&self, oids: &[Oid]) -> Result<(PageId, usize), StoreError> {
        let first = oids[0];
        let ty = first.type_id();
        let r = self
            .regions
            .get(ty.index())
            .copied()
            .flatten()
            .ok_or(StoreError::NoRegion(ty))?;
        let page = first.seq() / r.objs_per_page;
        let (lo, hi) = (
            page * r.objs_per_page,
            (page + 1).saturating_mul(r.objs_per_page),
        );
        let run = oids
            .iter()
            .take_while(|o| o.type_id() == ty && (lo..hi).contains(&o.seq()))
            .count();
        Ok((r.first_page + u64::from(page), run))
    }

    /// Slot index of `field` on objects of exact type `ty`; a field the
    /// type's layout does not hold is a typed error.
    pub fn try_slot(&self, ty: TypeId, field: FieldId) -> Result<usize, StoreError> {
        match self
            .slots
            .get(ty.index())
            .and_then(|row| row.get(field.index()))
        {
            Some(&slot) if slot != NO_SLOT => Ok(slot as usize),
            _ => Err(StoreError::UnknownField { ty, field }),
        }
    }

    /// Reads a field of an object (by the object's exact type layout).
    /// Panics on dangling references and layout mismatches — the
    /// generator never produces them; recovery-sensitive callers use
    /// [`Store::try_read_field`].
    pub fn read_field(&self, oid: Oid, field: FieldId) -> &Value {
        self.try_read_field(oid, field)
            .unwrap_or_else(|e| panic!("{e} (reading a field)"))
    }

    /// Reads a field of an object, reporting dangling OIDs and layout
    /// mismatches as typed errors instead of panicking. Recovery-sensitive
    /// executor paths and WAL replay route through this.
    pub fn try_read_field(&self, oid: Oid, field: FieldId) -> Result<&Value, StoreError> {
        let (ty, seq) = (oid.type_id(), oid.seq() as usize);
        let own = self
            .columns
            .get(ty.index())
            .filter(|own| seq < own.population)
            .ok_or(StoreError::UnknownOid(oid))?;
        Ok(&own.by_slot[self.try_slot(ty, field)?][seq])
    }

    /// Follows a reference path from `oid` (all links single-valued) and
    /// reads the terminal attribute, reporting dangling references and
    /// non-reference links as typed errors — malformed recovered data
    /// degrades to a query error, not a crash. Builds path indexes and
    /// statistics, and is the semantic oracle of the tests.
    pub fn try_eval_path(
        &self,
        oid: Oid,
        path: &[FieldId],
        key: FieldId,
    ) -> Result<Value, StoreError> {
        let mut cur = oid;
        for &link in path {
            match self.try_read_field(cur, link)? {
                Value::Ref(next) => cur = *next,
                _ => {
                    return Err(StoreError::NotARef {
                        oid: cur,
                        field: link,
                    })
                }
            }
        }
        Ok(self.try_read_field(cur, key)?.clone())
    }

    /// Builds every index declared in the catalog. With `bump_epoch` the
    /// catalog's statistics epoch moves: the physical design just
    /// (re)materialized, so previously cached plans must re-optimize. WAL
    /// replay passes `false` when re-materializing a checkpoint whose
    /// catalog already carries the final epoch, as does a statistics
    /// refresh that finds the indexes stale. All-or-nothing: on error the
    /// store is unchanged.
    pub fn try_rebuild_indexes(&mut self, bump_epoch: bool) -> Result<(), StoreError> {
        // Evaluate every index's pairs *before* mutating anything so a
        // dangling reference cannot leave a half-built index vector.
        let defs: Vec<_> = self.catalog.indexes().map(|(_, d)| d.clone()).collect();
        let mut built = Vec::with_capacity(defs.len());
        for def in &defs {
            let members = &self.members[def.collection.index()];
            let mut pairs: Vec<(Value, Oid)> = Vec::with_capacity(members.len());
            for &oid in members {
                pairs.push((self.try_eval_path(oid, &def.path, def.key)?, oid));
            }
            built.push(pairs);
        }
        if bump_epoch {
            self.catalog.bump_stats_epoch();
        }
        self.indexes.clear();
        for pairs in built {
            // Reserve internal + leaf pages after everything else on disk.
            let leaf_first = self.next_page + 4;
            let leaves = (pairs.len() as u64).div_ceil(crate::index::INDEX_FANOUT);
            self.next_page = leaf_first + leaves.max(1);
            self.indexes.push(BuiltIndex::build(pairs, leaf_first));
        }
        self.indexes_current = true;
        Ok(())
    }

    /// Whether [`Store::try_rebuild_indexes`] has materialized the
    /// catalog's indexes (checkpoints record this so recovery rebuilds
    /// them).
    pub fn indexes_built(&self) -> bool {
        !self.indexes.is_empty()
    }

    /// A built index by catalog id. Panics if the indexes were not built
    /// or the catalog changed since.
    #[allow(clippy::should_implement_trait)]
    pub fn index(&self, id: IndexId) -> &BuiltIndex {
        &self.indexes[id.index()]
    }

    /// Collects an equi-depth histogram for every index's `(collection,
    /// path, key)`, every path the catalog already holds a histogram for,
    /// and any extra attribute paths given, attaching them to a copy of
    /// the catalog (a histogram whose collection is now empty is dropped).
    /// This is the statistics-gathering pass behind
    /// the paper's future-work item "refine ... selectivity and cost
    /// estimation"; rerun it after data changes. The returned catalog's
    /// statistics epoch is one past this store's when a collected
    /// histogram differs from the one the catalog holds, so plan caches
    /// re-optimize under the refined estimates — and the same epoch when
    /// every histogram came out equal, so they keep every plan.
    pub fn collect_statistics(
        &self,
        extra: &[(CollectionId, Vec<FieldId>, FieldId)],
        buckets: usize,
    ) -> Catalog {
        self.try_collect_statistics(extra, buckets)
            .unwrap_or_else(|e| panic!("statistics over corrupt data: {e}"))
    }

    /// Statistics collection with typed errors, for WAL replay: a corrupt
    /// log record surfaces as a recovery error, never a process abort.
    /// The epoch rule is [`Store::collect_statistics`]'s.
    pub fn try_collect_statistics(
        &self,
        extra: &[(CollectionId, Vec<FieldId>, FieldId)],
        buckets: usize,
    ) -> Result<Catalog, StoreError> {
        let mut catalog = self.catalog.clone();
        let indexed = self
            .catalog
            .indexes()
            .map(|(_, d)| (d.collection, d.path.clone(), d.key));
        let held = self
            .catalog
            .histograms()
            .map(|((c, path, key), _)| (c, path.to_vec(), key));
        let mut targets: Vec<_> = indexed.chain(held).collect();
        targets.extend_from_slice(extra);
        targets.sort();
        targets.dedup();
        let mut changed = false;
        for (coll, path, key) in targets {
            let mut values: Vec<Value> = Vec::new();
            for &oid in self.members(coll) {
                values.push(self.try_eval_path(oid, &path, key)?);
            }
            let h = oodb_object::Histogram::build(values, buckets);
            if catalog.histogram(coll, &path, key) != h.as_ref() {
                match h {
                    Some(h) => catalog.set_histogram(coll, path, key, h),
                    // An emptied collection has no distribution to describe.
                    None => catalog.remove_histogram(coll, &path, key),
                }
                changed = true;
            }
        }
        if changed {
            catalog.bump_stats_epoch();
        }
        Ok(catalog)
    }

    /// A statistics refresh in place — what a logged `StatsRefresh`
    /// does, live and in replay. It collects histograms over the indexed
    /// paths and every path the catalog holds a histogram for, at
    /// `buckets` buckets, swaps them in only if one changed (the
    /// epoch then moves by exactly one), and rebuilds the indexes only if
    /// the data changed since they were built: indexes depend on the data,
    /// not on the histograms. Over unchanged data it changes nothing, so
    /// every cached plan stays servable; a repeat at the bucket count of
    /// the last refresh, with nothing changed since, does not even
    /// collect. Returns whether the epoch moved. All-or-nothing: on error
    /// the store is unchanged.
    pub fn try_refresh_statistics(&mut self, buckets: usize) -> Result<bool, StoreError> {
        if self.indexes_current && self.stats_current == Some(buckets) {
            debug_assert!(
                matches!(self.try_collect_statistics(&[], buckets),
                    Ok(c) if c.stats_epoch() == self.catalog.stats_epoch()),
                "a skipped refresh would have moved the epoch"
            );
            return Ok(false);
        }
        let catalog = self.try_collect_statistics(&[], buckets)?;
        if !self.indexes_current {
            self.try_rebuild_indexes(false)?;
        }
        let moved = catalog.stats_epoch() != self.catalog.stats_epoch();
        if moved {
            // A copy of this catalog with new histograms: same index set,
            // so the built indexes stay valid.
            self.catalog = catalog;
        }
        self.stats_current = Some(buckets);
        Ok(moved)
    }

    /// Pages covering members `[0, n)` of a collection — the dense-prefix
    /// scan range. For extents this is the whole type region. A member
    /// whose type has no storage region is an error.
    pub fn scan_pages(&self, coll: CollectionId) -> Result<Vec<PageId>, StoreError> {
        let members = self.members[coll.index()].iter();
        let mut pages = members
            .map(|&o| self.try_page_of(o))
            .collect::<Result<Vec<_>, _>>()?;
        pages.dedup();
        Ok(pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::columns;
    use oodb_object::{AttrType, CollectionDef, CollectionKind, FieldKind};

    fn tiny() -> (Store, TypeId, CollectionId) {
        let mut b = Schema::builder();
        let t = b.add_type("T", None);
        b.add_field(t, "x", FieldKind::Attr(AttrType::Int));
        let schema = b.build();
        let mut cat = Catalog::new();
        let coll = cat.add_collection(CollectionDef {
            name: "Ts".into(),
            elem_type: t,
            kind: CollectionKind::Extent,
            cardinality: 100,
            obj_bytes: 400,
        });
        let mut store = Store::new(schema, cat);
        let xs = columns(100, |i| [Value::Int(i as i64 % 7)]);
        store.insert_columns(t, 100, xs, 400).unwrap();
        let oids: Vec<Oid> = (0..100).map(|i| Oid::new(t, i)).collect();
        store.set_members(coll, oids).unwrap();
        (store, t, coll)
    }

    #[test]
    fn dense_packing_page_math() {
        let (store, t, _) = tiny();
        // PAGE_BYTES / 400 = 10 objects per page.
        assert_eq!(store.try_page_of(Oid::new(t, 0)), Ok(0));
        assert_eq!(store.try_page_of(Oid::new(t, 9)), Ok(0));
        assert_eq!(store.try_page_of(Oid::new(t, 10)), Ok(1));
        assert_eq!(store.try_page_of(Oid::new(t, 99)), Ok(9));
    }

    #[test]
    fn page_runs_end_at_page_and_type_boundaries() {
        let (store, t, coll) = tiny();
        let all = store.members(coll);
        // 10 objects per page: a full page, then what is left of one.
        assert_eq!(store.try_page_run(all), Ok((0, 10)));
        assert_eq!(store.try_page_run(&all[7..]), Ok((0, 3)));
        assert_eq!(store.try_page_run(&all[95..]), Ok((9, 5)));
        // Out of storage order, a run is still only what shares the page.
        let hops = [
            Oid::new(t, 12),
            Oid::new(t, 19),
            Oid::new(t, 3),
            Oid::new(t, 11),
        ];
        assert_eq!(store.try_page_run(&hops), Ok((1, 2)));
        let other = Oid::new(TypeId::from_index(t.index() + 1), 0);
        assert_eq!(store.try_page_run(&[all[0], other]), Ok((0, 1)));
        assert_eq!(
            store.try_page_run(&[other]),
            Err(StoreError::NoRegion(other.type_id()))
        );
    }

    #[test]
    fn scan_pages_are_dense() {
        let (store, _, coll) = tiny();
        let pages = store.scan_pages(coll);
        assert_eq!(pages, Ok((0..10).collect::<Vec<_>>()));
    }

    /// A collection whose members' type was never stored has no pages to
    /// scan: an error, not a panic.
    #[test]
    fn scanning_members_without_a_region_is_an_error() {
        let (mut store, t, coll) = tiny();
        let ghost = TypeId::from_index(t.index() + 1);
        store.set_members(coll, vec![Oid::new(ghost, 0)]).unwrap();
        assert_eq!(store.scan_pages(coll), Err(StoreError::NoRegion(ghost)));
    }

    #[test]
    fn read_field_roundtrip() {
        let (store, t, _) = tiny();
        let x = store.schema().field_by_name(t, "x").unwrap();
        assert_eq!(store.read_field(Oid::new(t, 8), x), &Value::Int(1));
    }

    /// A dangling oid is reported before a field its type does not have,
    /// whichever way the oid dangles; a column is per exact type.
    #[test]
    fn unknown_oid_is_reported_before_unknown_field() {
        let (store, model) = crate::generate_paper_db(crate::GenConfig::small());
        let ids = &model.ids;
        let (city, floor) = (Oid::new(ids.city, 0), ids.dept_floor);
        assert_eq!(
            store.try_read_field(city, floor),
            Err(StoreError::UnknownField {
                ty: ids.city,
                field: floor
            })
        );
        let past = Oid::new(ids.city, store.population(ids.city) as u32);
        let nowhere = Oid::new(TypeId::from_index(store.schema().type_count()), 0);
        for ghost in [past, nowhere] {
            for field in [ids.city_name, floor] {
                assert_eq!(
                    store.try_read_field(ghost, field),
                    Err(StoreError::UnknownOid(ghost))
                );
            }
        }
        // An inherited field has a column of its own on the subtype.
        let names = store.try_column(ids.employee, ids.person_name).unwrap();
        assert_eq!(names.len(), store.population(ids.employee));
        let some = Oid::new(ids.employee, 7);
        assert_eq!(&names[7], store.read_field(some, ids.person_name));
        assert!(store.try_column(ids.person, ids.emp_dept).is_err());
        assert!(store.try_column(nowhere.type_id(), ids.city_name).is_err());
    }

    /// Columns in, columns out: every type of the paper database survives
    /// `columns_of` → `insert_columns` value for value and without a copy,
    /// on the page geometry it had.
    #[test]
    fn rows_round_trip_through_the_columns() {
        let (store, model) = crate::generate_paper_db(crate::GenConfig::small());
        let mut again = Store::new(model.schema.clone(), model.catalog.clone());
        // Pages are handed out in insert order, so replay it.
        let regions: Vec<(TypeId, u32)> = store.regions().collect();
        assert_eq!(regions.len(), 10);
        for (ty, obj_bytes) in regions {
            let name = &model.schema.ty(ty).name;
            let (columns, population) = (store.columns_of(ty), store.population(ty));
            let fields = model.schema.fields_of(ty);
            assert_eq!(columns.len(), fields.len(), "{name}");
            for (column, &field) in columns.iter().zip(&fields) {
                assert_eq!(column.len(), population, "{name}");
                let last = Oid::new(ty, population as u32 - 1);
                assert_eq!(&column[population - 1], store.read_field(last, field));
            }
            again
                .insert_columns(ty, population, columns.to_vec(), obj_bytes)
                .unwrap();
            for (ours, theirs) in again.columns_of(ty).iter().zip(columns) {
                assert!(Arc::ptr_eq(ours, theirs), "{name}: a column was copied");
            }
            let first = Oid::new(ty, 0);
            assert_eq!(again.try_page_of(first), store.try_page_of(first), "{name}");
        }
        assert!(again.regions().eq(store.regions()));
    }

    /// Each mutation the store refuses returns its error and changes
    /// nothing: an unknown type, a second insert, a column missing, a
    /// column short of the population, an unknown collection and a
    /// catalog with another collection count.
    #[test]
    fn each_refused_mutation_leaves_the_store_unchanged() {
        let (mut store, t, coll) = tiny();
        let before = format!("{store:?}");
        let ghost = TypeId::from_index(t.index() + 1);
        let one = || columns(1, |_| [Value::Int(0)]);
        assert_eq!(
            store.insert_columns(ghost, 1, one(), 400),
            Err(StoreError::UnknownType(ghost))
        );
        assert_eq!(
            store.insert_columns(t, 1, one(), 400),
            Err(StoreError::TypeAlreadyPopulated(t))
        );
        let mut fresh = Store::new(store.schema().clone(), store.catalog().clone());
        let empty = format!("{fresh:?}");
        let none: Vec<Vec<Value>> = Vec::new();
        assert_eq!(
            fresh.insert_columns(t, 1, none, 400),
            Err(StoreError::ColumnShape(t))
        );
        assert_eq!(
            fresh.insert_columns(t, 2, one(), 400),
            Err(StoreError::ColumnShape(t))
        );
        assert_eq!(format!("{fresh:?}"), empty);
        let outside = CollectionId::from_index(1);
        assert_eq!(
            store.set_members(outside, vec![Oid::new(t, 0)]),
            Err(StoreError::UnknownCollection(outside))
        );
        assert_eq!(
            store.set_catalog(Catalog::new()),
            Err(StoreError::CatalogShape { have: 1, got: 0 })
        );
        assert_eq!(format!("{store:?}"), before);
        assert_eq!(store.members(coll).len(), 100);
    }

    /// A catalog with a collection of a type outside the schema is refused
    /// where a store is made from one and where one replaces another.
    #[test]
    fn a_collection_of_an_unknown_type_is_refused() {
        let (mut store, _, _) = tiny();
        let ghost = TypeId::from_index(store.schema().type_count());
        let mut bogus = store.catalog().clone();
        bogus.add_collection(CollectionDef {
            name: "Bogus".into(),
            elem_type: ghost,
            kind: CollectionKind::UserSet,
            cardinality: 0,
            obj_bytes: 8,
        });
        let refused = Err(StoreError::Catalog(CatalogError::UnknownType(ghost)));
        assert_eq!(
            Store::try_new(store.schema().clone(), bogus).map(drop),
            refused
        );
        // Same count as the store's catalog, so only the type is wrong.
        let mut same_count = Catalog::new();
        same_count.add_collection(CollectionDef {
            elem_type: ghost,
            ..store
                .catalog()
                .collection(CollectionId::from_index(0))
                .clone()
        });
        let before = format!("{store:?}");
        assert_eq!(store.set_catalog(same_count), refused);
        assert_eq!(format!("{store:?}"), before);
    }

    /// A row with a slot missing is a column one value short: the insert
    /// is refused with a message naming the layout, and the store keeps
    /// no part of it.
    #[test]
    #[should_panic(expected = "columns do not fit the layout")]
    fn a_row_with_a_slot_missing_is_refused() {
        let (full, t, _) = tiny();
        let mut store = Store::new(full.schema().clone(), Catalog::new());
        let empty = format!("{store:?}");
        let refused = store
            .insert_columns(t, 2, columns(1, |_| [Value::Int(0)]), 400)
            .unwrap_err();
        assert_eq!(format!("{store:?}"), empty);
        panic!("{refused}");
    }

    /// A second insert for a populated type is refused with a message
    /// saying so, and the first population stays.
    #[test]
    #[should_panic(expected = "already populated")]
    fn double_insert_panics() {
        let (mut store, t, _) = tiny();
        let before = format!("{store:?}");
        let refused = store
            .insert_columns(t, 0, columns(0, |_| [Value::Null]), 400)
            .unwrap_err();
        assert_eq!(format!("{store:?}"), before);
        panic!("{refused}");
    }

    #[test]
    fn index_build_and_lookup() {
        let (mut store, t, coll) = tiny();
        let x = store.schema().field_by_name(t, "x").unwrap();
        let mut cat = store.catalog().clone();
        cat.add_index(oodb_object::IndexDef {
            name: "Ts_x".into(),
            collection: coll,
            path: vec![],
            key: x,
            distinct_keys: 7,
            clustered: false,
        });
        store.set_catalog(cat).unwrap();
        store.try_rebuild_indexes(true).unwrap();
        let id = store.catalog().index_by_name("Ts_x").unwrap();
        let hits = store
            .index(id)
            .lookup_cmp(oodb_object::value::CmpLike::Eq, &Value::Int(3));
        // x = i % 7 == 3 for i in {3,10,17,...,94}: 14 values.
        assert_eq!(hits.len(), 14);
        assert!(hits
            .iter()
            .all(|&o| o == Oid::new(t, o.seq()) && store.read_field(o, x) == &Value::Int(3)));
    }

    /// Each change an index could see clears the statistics stamp, so the
    /// refresh after it collects; a repeat with nothing changed does not.
    #[test]
    fn every_clearing_site_makes_the_next_refresh_collect() {
        let mut b = Schema::builder();
        let t = b.add_type("T", None);
        let x = b.add_field(t, "x", FieldKind::Attr(AttrType::Int));
        let u = b.add_type("U", None);
        b.add_field(u, "z", FieldKind::Attr(AttrType::Int));
        let mut cat = Catalog::new();
        let coll = cat.add_collection(CollectionDef {
            name: "Ts".into(),
            elem_type: t,
            kind: CollectionKind::Extent,
            cardinality: 100,
            obj_bytes: 400,
        });
        cat.add_index(oodb_object::IndexDef {
            name: "Ts_x".into(),
            collection: coll,
            path: vec![],
            key: x,
            distinct_keys: 7,
            clustered: false,
        });
        let mut store = Store::new(b.build(), cat);
        let xs = columns(100, |i| [Value::Int(i as i64 % 7)]);
        store.insert_columns(t, 100, xs, 400).unwrap();
        let oids: Vec<Oid> = (0..100).map(|i| Oid::new(t, i)).collect();
        store.set_members(coll, oids.clone()).unwrap();
        assert_eq!(store.try_refresh_statistics(8), Ok(true));
        assert_eq!(store.stats_current, Some(8));
        assert_eq!(store.try_refresh_statistics(8), Ok(false), "a repeat");
        assert_eq!(store.try_refresh_statistics(4), Ok(true), "new buckets");
        // Each site clears the stamp; the refresh after it collects and
        // stamps again, moving the epoch only where a histogram changed.
        let after = |store: &mut Store, moved: bool| {
            assert_eq!(store.stats_current, None);
            assert_eq!(store.try_refresh_statistics(4), Ok(moved));
            assert_eq!(store.stats_current, Some(4));
        };
        let zs = columns(3, |i| [Value::Int(i as i64)]);
        store.insert_columns(u, 3, zs, 100).unwrap();
        after(&mut store, false);
        store.set_members(coll, oids[..50].to_vec()).unwrap();
        after(&mut store, true);
        store.set_catalog(store.catalog().clone()).unwrap();
        after(&mut store, false);
    }

    /// A histogram the catalog holds is refreshed whether or not an index
    /// still covers its path: restrict away `Cities_mayor_name`, cut
    /// `Cities` to a quarter, refresh, and the held histogram is the one a
    /// fresh build over the quarter gives.
    #[test]
    fn a_refresh_keeps_a_histogram_no_index_covers_current() {
        let (mut store, model) = crate::generate_paper_db(crate::GenConfig::small());
        let ids = &model.ids;
        let (cities, path, key) = (ids.cities, vec![ids.city_mayor], ids.person_name);
        assert_eq!(store.try_refresh_statistics(16), Ok(true));
        let others: Vec<&str> = store
            .catalog()
            .indexes()
            .map(|(_, d)| d.name.as_str())
            .filter(|&name| name != "Cities_mayor_name")
            .collect();
        let restricted = store.catalog().with_only_indexes(&others);
        store.set_catalog(restricted).unwrap();
        assert!(store.catalog().histogram(cities, &path, key).is_some());
        let quarter = store.members(cities)[..store.members(cities).len() / 4].to_vec();
        store.set_members(cities, quarter.clone()).unwrap();
        assert_eq!(store.try_refresh_statistics(16), Ok(true));
        let values = quarter.iter().map(|&c| store.try_eval_path(c, &path, key));
        let fresh = oodb_object::Histogram::build(values.collect::<Result<_, _>>().unwrap(), 16);
        assert_eq!(
            store.catalog().histogram(cities, &path, key),
            fresh.as_ref()
        );
    }

    /// A collection emptied since the last refresh has no distribution:
    /// the next refresh drops its histogram, as a fresh collection would
    /// never have built one, and moves the epoch.
    #[test]
    fn a_refresh_drops_the_histogram_of_an_emptied_collection() {
        let (mut store, t, coll) = tiny();
        let x = store.schema().field_by_name(t, "x").unwrap();
        let mut cat = store.catalog().clone();
        let h = oodb_object::Histogram::build(vec![Value::Int(1)], 4).unwrap();
        cat.set_histogram(coll, vec![], x, h);
        store.set_catalog(cat).unwrap();
        store.set_members(coll, Vec::new()).unwrap();
        assert_eq!(store.try_refresh_statistics(4), Ok(true));
        assert_eq!(store.catalog().histogram(coll, &[], x), None);
        assert_eq!(store.catalog().histogram_count(), 0);
    }

    #[test]
    fn path_eval_follows_refs() {
        let mut b = Schema::builder();
        let p = b.add_type("P", None);
        let p_name = b.add_field(p, "name", FieldKind::Attr(AttrType::Str));
        let c = b.add_type("C", None);
        let c_ref = b.add_field(c, "p", FieldKind::Ref(p));
        let schema = b.build();
        let mut store = Store::new(schema, Catalog::new());
        let names = columns(1, |_| [Value::str("joe")]);
        store.insert_columns(p, 1, names, 100).unwrap();
        let refs = columns(1, |_| [Value::Ref(Oid::new(p, 0))]);
        store.insert_columns(c, 1, refs, 100).unwrap();
        assert_eq!(
            store.try_eval_path(Oid::new(c, 0), &[c_ref], p_name),
            Ok(Value::str("joe"))
        );
    }
}
