//! Catalog: named collections, statistics, and index descriptors.
//!
//! This is the optimizer's window onto physical data. Two of the paper's
//! evaluation points hinge on exactly what the catalog records:
//!
//! * **Cardinality is kept only for sets and extents.** Types without an
//!   extent (the paper's `Plant`) expose *no* cardinality, so the optimizer
//!   cannot bound the number of page faults when assembling them — this is
//!   the source of the 50,000-fault estimate for the naive Query 1 plan.
//! * **Indexes, including path indexes**, are catalog entries: the
//!   collapse-to-index-scan implementation rule fires only when a matching
//!   [`IndexDef`] exists, and Table 3 sweeps index availability.

use crate::fx::FxBuild;
use crate::schema::{FieldId, FieldKind, Schema, TypeId};
use crate::stats::Histogram;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

arena_id! {
    /// Identifier of a collection (user-defined set or type extent).
    CollectionId
}

arena_id! {
    /// Identifier of an index.
    IndexId
}

/// Whether a collection is a user-defined set or a type extent.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CollectionKind {
    /// A named, user-defined set (e.g. `Employees`); may be a subset of the
    /// type's population.
    UserSet,
    /// The system-maintained extent holding *all* instances of a type —
    /// the only collection the Mat→Join rule may scan as a substitute for
    /// reference traversal.
    Extent,
}

/// A collection the query processor can scan.
#[derive(Clone, Debug)]
pub struct CollectionDef {
    /// Collection name (`Employees`, `extent(Job)`, ...).
    pub name: String,
    /// Element type.
    pub elem_type: TypeId,
    /// Set or extent.
    pub kind: CollectionKind,
    /// Exact cardinality. Present because cardinality *is* maintained for
    /// sets and extents (and only for them) in the paper's prototype.
    pub cardinality: u64,
    /// Average object size in bytes (Table 1's `Obj. Size`).
    pub obj_bytes: u32,
}

/// Kind of index.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IndexKind {
    /// Index on an embedded attribute of the collection's elements.
    Attribute,
    /// Path index: key is reached by traversing one or more reference
    /// fields and ending in an attribute (e.g. `Cities` on `mayor.name`).
    Path,
}

/// An index over a collection.
///
/// `path` holds the reference links traversed (empty for plain attribute
/// indexes) and `key` the terminal attribute. A path index answers a
/// predicate on the full path *without materializing intermediate objects*,
/// which is exactly why the collapsed index scan in the paper's Query 2
/// delivers city objects only — "the mayor component objects are never read
/// into memory".
#[derive(Clone, Debug)]
pub struct IndexDef {
    /// Index name, for plan display.
    pub name: String,
    /// Indexed collection.
    pub collection: CollectionId,
    /// Reference links from the element type to the key's owner (empty for
    /// attribute indexes).
    pub path: Vec<FieldId>,
    /// Terminal attribute.
    pub key: FieldId,
    /// Number of distinct key values — drives selectivity estimation.
    pub distinct_keys: u64,
    /// Whether entries are clustered with the collection's storage order.
    /// Unclustered indexes pay one random I/O per match when fetching.
    pub clustered: bool,
}

impl IndexDef {
    /// Attribute vs path index.
    pub fn kind(&self) -> IndexKind {
        if self.path.is_empty() {
            IndexKind::Attribute
        } else {
            IndexKind::Path
        }
    }
}

/// The catalog: collections, extents, indexes, and their statistics.
///
/// A cheap handle: the body sits behind one `Arc`, so `clone` bumps a
/// reference count and every query environment, cached plan and prepared
/// statement shares the store's snapshot. Every mutator copies the body
/// on write when it is shared, so a clone taken before a change keeps
/// the catalog it was taken from. The statistics epoch lives beside the
/// `Arc`, so moving it never copies.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    body: Arc<CatalogBody>,
    /// Monotonic statistics epoch. Bumped whenever the statistics or the
    /// physical design behind this catalog change (a collection that
    /// changed a histogram, an epoch-bumping index build, catalog
    /// replacement), so cached plans keyed on the epoch go stale *lazily*
    /// — no cache walk on invalidation.
    stats_epoch: u64,
}

#[derive(Clone, Debug, Default)]
struct CatalogBody {
    collections: Vec<CollectionDef>,
    by_name: HashMap<String, CollectionId>,
    extent_by_type: HashMap<TypeId, CollectionId, FxBuild>,
    indexes: Vec<IndexDef>,
    index_by_name: HashMap<String, IndexId>,
    /// Integrity constraints: all referents of a `Ref`/`RefSet` field are
    /// known to lie in the given collection. Lets the Mat→Join rule scan a
    /// (smaller) user set instead of the type extent.
    ref_domains: HashMap<FieldId, CollectionId, FxBuild>,
    /// Average number of elements in a `RefSet` field — the fan-out used
    /// by Unnest cardinality estimation.
    fanouts: HashMap<FieldId, f64, FxBuild>,
    /// Collected attribute statistics, keyed by `(collection, terminal
    /// attribute)` and then by reference path — the selectivity
    /// refinement the paper lists as future work. The two levels let a
    /// lookup borrow its path (`Vec<FieldId>: Borrow<[FieldId]>`) instead
    /// of building an owned key.
    histograms: HashMap<(CollectionId, FieldId), HashMap<Vec<FieldId>, Histogram>>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a collection. Extents are also recorded in the
    /// type → extent map. A name or an extent taken before keeps its
    /// first owner; [`Catalog::check`] refuses the later one.
    pub fn add_collection(&mut self, def: CollectionDef) -> CollectionId {
        let body = Arc::make_mut(&mut self.body);
        let id = CollectionId::from_index(body.collections.len());
        if def.kind == CollectionKind::Extent {
            body.extent_by_type.entry(def.elem_type).or_insert(id);
        }
        body.by_name.entry(def.name.clone()).or_insert(id);
        body.collections.push(def);
        id
    }

    /// Registers an index. A name taken before keeps its first owner;
    /// [`Catalog::check`] refuses the later one.
    pub fn add_index(&mut self, def: IndexDef) -> IndexId {
        let body = Arc::make_mut(&mut self.body);
        let id = IndexId::from_index(body.indexes.len());
        body.index_by_name.entry(def.name.clone()).or_insert(id);
        body.indexes.push(def);
        id
    }

    /// Collection definition.
    pub fn collection(&self, id: CollectionId) -> &CollectionDef {
        &self.body.collections[id.index()]
    }

    /// Looks a collection up by name.
    pub fn collection_by_name(&self, name: &str) -> Option<CollectionId> {
        self.body.by_name.get(name).copied()
    }

    /// All collections.
    pub fn collections(&self) -> impl Iterator<Item = (CollectionId, &CollectionDef)> {
        self.body
            .collections
            .iter()
            .enumerate()
            .map(|(i, c)| (CollectionId::from_index(i), c))
    }

    /// The extent of a type, if the type has one. Per the paper's prototype,
    /// this is the only way the optimizer learns the population size of a
    /// type; types without extents (e.g. `Plant`) are cardinality-blind.
    pub fn extent_of(&self, ty: TypeId) -> Option<CollectionId> {
        self.body.extent_by_type.get(&ty).copied()
    }

    /// Index definition.
    #[allow(clippy::should_implement_trait)]
    pub fn index(&self, id: IndexId) -> &IndexDef {
        &self.body.indexes[id.index()]
    }

    /// Looks an index up by name.
    pub fn index_by_name(&self, name: &str) -> Option<IndexId> {
        self.body.index_by_name.get(name).copied()
    }

    /// All indexes.
    pub fn indexes(&self) -> impl Iterator<Item = (IndexId, &IndexDef)> {
        self.body
            .indexes
            .iter()
            .enumerate()
            .map(|(i, d)| (IndexId::from_index(i), d))
    }

    /// Indexes over a given collection.
    pub fn indexes_on(&self, coll: CollectionId) -> impl Iterator<Item = (IndexId, &IndexDef)> {
        self.indexes_on_filtered(coll, |_| true)
    }

    fn indexes_on_filtered<F: Fn(&IndexDef) -> bool>(
        &self,
        coll: CollectionId,
        f: F,
    ) -> impl Iterator<Item = (IndexId, &IndexDef)> {
        self.body
            .indexes
            .iter()
            .enumerate()
            .filter(move |(_, d)| d.collection == coll && f(d))
            .map(|(i, d)| (IndexId::from_index(i), d))
    }

    /// Finds an index on `coll` whose `(path, key)` matches exactly — the
    /// lookup the collapse-to-index-scan rule performs.
    pub fn find_index(
        &self,
        coll: CollectionId,
        path: &[FieldId],
        key: FieldId,
    ) -> Option<(IndexId, &IndexDef)> {
        self.indexes_on(coll)
            .find(|(_, d)| d.path == path && d.key == key)
    }

    /// Declares that every referent of `field` lies in `coll` (an
    /// integrity constraint the generator upholds).
    pub fn set_ref_domain(&mut self, field: FieldId, coll: CollectionId) {
        Arc::make_mut(&mut self.body)
            .ref_domains
            .insert(field, coll);
    }

    /// The declared referent domain of a reference field, if any.
    pub fn ref_domain(&self, field: FieldId) -> Option<CollectionId> {
        self.body.ref_domains.get(&field).copied()
    }

    /// Records the average cardinality of a set-valued field.
    pub fn set_fanout(&mut self, field: FieldId, avg: f64) {
        Arc::make_mut(&mut self.body).fanouts.insert(field, avg);
    }

    /// Average cardinality of a set-valued field. Without a recorded
    /// statistic the optimizer assumes a fan-out of 5 (in the same naïve
    /// spirit as the paper's 10% default selectivity).
    pub fn fanout(&self, field: FieldId) -> f64 {
        self.body.fanouts.get(&field).copied().unwrap_or(5.0)
    }

    /// Attaches a collected histogram for `(coll, path, key)`.
    pub fn set_histogram(
        &mut self,
        coll: CollectionId,
        path: Vec<FieldId>,
        key: FieldId,
        h: Histogram,
    ) {
        Arc::make_mut(&mut self.body)
            .histograms
            .entry((coll, key))
            .or_default()
            .insert(path, h);
    }

    /// Drops the histogram for `(coll, path, key)`, if there is one.
    pub fn remove_histogram(&mut self, coll: CollectionId, path: &[FieldId], key: FieldId) {
        let histograms = &mut Arc::make_mut(&mut self.body).histograms;
        if let Some(by_path) = histograms.get_mut(&(coll, key)) {
            by_path.remove(path);
            if by_path.is_empty() {
                histograms.remove(&(coll, key));
            }
        }
    }

    /// Collected statistics for an attribute path, if any.
    pub fn histogram(
        &self,
        coll: CollectionId,
        path: &[FieldId],
        key: FieldId,
    ) -> Option<&Histogram> {
        self.body.histograms.get(&(coll, key))?.get(path)
    }

    /// Number of collected histograms.
    pub fn histogram_count(&self) -> usize {
        self.body.histograms.values().map(HashMap::len).sum()
    }

    /// Every collected histogram with its `(collection, path, key)` key.
    /// Iteration order is unspecified (serializers must sort). Exposed for
    /// the durability checkpoint codec.
    pub fn histograms(
        &self,
    ) -> impl Iterator<Item = ((CollectionId, &[FieldId], FieldId), &Histogram)> {
        self.body.histograms.iter().flat_map(|(&(c, k), by_path)| {
            by_path.iter().map(move |(p, h)| ((c, p.as_slice(), k), h))
        })
    }

    /// Every declared referent-domain constraint. Iteration order is
    /// unspecified (serializers must sort).
    pub fn ref_domains(&self) -> impl Iterator<Item = (FieldId, CollectionId)> + '_ {
        self.body.ref_domains.iter().map(|(&f, &c)| (f, c))
    }

    /// Every recorded set-valued fan-out. Iteration order is unspecified
    /// (serializers must sort).
    pub fn fanouts(&self) -> impl Iterator<Item = (FieldId, f64)> + '_ {
        self.body.fanouts.iter().map(|(&f, &v)| (f, v))
    }

    /// Returns a copy of this catalog with only the named indexes retained —
    /// the index-availability sweep of Table 3.
    pub fn with_only_indexes(&self, keep: &[&str]) -> Catalog {
        let mut out = self.clone();
        let body = Arc::make_mut(&mut out.body);
        body.indexes.clear();
        body.index_by_name.clear();
        for d in &self.body.indexes {
            if keep.contains(&d.name.as_str()) {
                out.add_index(d.clone());
            }
        }
        out.bump_stats_epoch();
        out
    }

    /// The current statistics epoch. Plan-cache keys include this value;
    /// any statistics or physical-design change bumps it, so entries
    /// cached under an older epoch can never be served again. It moves
    /// only on a change: a statistics refresh that collects the
    /// histograms the catalog already holds leaves it (and every cached
    /// plan) where it was.
    pub fn stats_epoch(&self) -> u64 {
        self.stats_epoch
    }

    /// Advances the statistics epoch. Called by the storage layer when a
    /// statistics collection changed a histogram, by epoch-bumping index
    /// builds, and on catalog replacement.
    pub fn bump_stats_epoch(&mut self) {
        self.stats_epoch += 1;
    }

    /// Forces the epoch to be at least `floor` (used when a replacement
    /// catalog must stay monotonic w.r.t. the one it replaces).
    pub fn raise_stats_epoch_to(&mut self, floor: u64) {
        self.stats_epoch = self.stats_epoch.max(floor);
    }

    /// A 64-bit FNV-1a fingerprint of the index *set*: every descriptor's
    /// name, collection, path, key, and clustering, in catalog order.
    /// Plan-cache keys include it so adding or dropping an index changes
    /// the key even if the statistics epoch were somehow left untouched.
    pub fn index_set_hash(&self) -> u64 {
        let mut h = crate::fnv::Fnv1a::default();
        for d in &self.body.indexes {
            h.eat(d.name.as_bytes());
            h.eat(&(d.collection.0).to_le_bytes());
            for f in &d.path {
                h.eat(&(f.index() as u32).to_le_bytes());
            }
            h.eat(&(d.key.index() as u32).to_le_bytes());
            h.eat(&[d.clustered as u8, b';']);
        }
        h.finish()
    }

    /// Checks every rule a catalog keeps over `schema`: unique collection
    /// and index names, one extent per type, collection and field ids the
    /// catalog and the schema hold, and indexes whose paths are
    /// single-valued references from the collection's element type to an
    /// attribute key. A catalog that passes can be read without a bounds
    /// check; the store refuses one that does not.
    pub fn check(&self, schema: &Schema) -> Result<(), CatalogError> {
        let field = |x: FieldId| {
            (x.index() < schema.field_count())
                .then(|| schema.field(x))
                .ok_or(CatalogError::UnknownField(x))
        };
        let collection = |c: CollectionId| {
            self.body
                .collections
                .get(c.index())
                .ok_or(CatalogError::UnknownCollection(c))
        };
        for (id, c) in self.collections() {
            if self.collection_by_name(&c.name) != Some(id) {
                return Err(CatalogError::DuplicateCollection(id));
            }
            if c.kind == CollectionKind::Extent && self.extent_of(c.elem_type) != Some(id) {
                return Err(CatalogError::SecondExtent(id));
            }
            if c.elem_type.index() >= schema.type_count() {
                return Err(CatalogError::UnknownType(c.elem_type));
            }
        }
        for (id, idx) in self.indexes() {
            if self.index_by_name(&idx.name) != Some(id) {
                return Err(CatalogError::DuplicateIndex(id));
            }
            let mut ty = collection(idx.collection)?.elem_type;
            for &link in &idx.path {
                let f = field(link)?;
                match f.kind {
                    FieldKind::Ref(target) if schema.is_subtype(ty, f.owner) => ty = target,
                    _ => return Err(CatalogError::PathLink(id, link)),
                }
            }
            let key = field(idx.key)?;
            if !key.kind.is_attr() || !schema.is_subtype(ty, key.owner) {
                return Err(CatalogError::IndexKey(id, idx.key));
            }
        }
        for (x, c) in self.ref_domains() {
            field(x)?;
            collection(c)?;
        }
        for ((c, path, key), _) in self.histograms() {
            collection(c)?;
            for &x in path.iter().chain([&key]) {
                field(x)?;
            }
        }
        Ok(())
    }

    /// Number of 4 KB-equivalent pages a dense scan of the collection
    /// touches, given a page size. ("Objects in user-defined sets and type
    /// extents are assumed to be densely packed on pages.")
    pub fn pages_of(&self, id: CollectionId, page_bytes: u32) -> u64 {
        let c = self.collection(id);
        let per_page = (page_bytes / c.obj_bytes.max(1)).max(1) as u64;
        c.cardinality.div_ceil(per_page)
    }
}

/// Why a catalog is not well-formed over a schema ([`Catalog::check`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CatalogError {
    /// A collection's name repeats an earlier collection's.
    DuplicateCollection(CollectionId),
    /// An extent of a type that already has one.
    SecondExtent(CollectionId),
    /// An index's name repeats an earlier index's.
    DuplicateIndex(IndexId),
    /// An index, referent domain or histogram names no collection.
    UnknownCollection(CollectionId),
    /// A collection's element type is not a type of the schema.
    UnknownType(TypeId),
    /// An index, referent domain or histogram names no field of the schema.
    UnknownField(FieldId),
    /// An index path link is no single-valued reference on the type the
    /// path has reached.
    PathLink(IndexId, FieldId),
    /// An index key is no attribute of the type its path ends at.
    IndexKey(IndexId, FieldId),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::DuplicateCollection(c) => write!(f, "duplicate collection name at {c:?}"),
            CatalogError::SecondExtent(c) => write!(f, "second extent of a type at {c:?}"),
            CatalogError::DuplicateIndex(i) => write!(f, "duplicate index name at {i:?}"),
            CatalogError::UnknownCollection(c) => write!(f, "unknown collection {c:?}"),
            CatalogError::UnknownType(t) => write!(f, "unknown type {t:?}"),
            CatalogError::UnknownField(x) => write!(f, "unknown field {x:?}"),
            CatalogError::PathLink(i, x) => write!(f, "{i:?}: link {x:?} is no reference"),
            CatalogError::IndexKey(i, x) => write!(f, "{i:?}: key {x:?} is no attribute"),
        }
    }
}

impl std::error::Error for CatalogError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrType;

    fn setup() -> (Schema, Catalog) {
        let mut b = Schema::builder();
        let person = b.add_type("Person", None);
        b.add_field(person, "name", FieldKind::Attr(AttrType::Str));
        let city = b.add_type("City", None);
        b.add_field(city, "mayor", FieldKind::Ref(person));
        let schema = b.build();

        let mut cat = Catalog::new();
        cat.add_collection(CollectionDef {
            name: "Cities".into(),
            elem_type: city,
            kind: CollectionKind::UserSet,
            cardinality: 10_000,
            obj_bytes: 200,
        });
        cat.add_collection(CollectionDef {
            name: "extent(Person)".into(),
            elem_type: person,
            kind: CollectionKind::Extent,
            cardinality: 100_000,
            obj_bytes: 100,
        });
        (schema, cat)
    }

    #[test]
    fn extent_lookup_by_type() {
        let (schema, cat) = setup();
        let person = schema.type_by_name("Person").unwrap();
        let city = schema.type_by_name("City").unwrap();
        assert!(cat.extent_of(person).is_some());
        assert!(cat.extent_of(city).is_none(), "City has no extent");
    }

    #[test]
    fn path_index_found_by_shape() {
        let (schema, mut cat) = setup();
        let city = schema.type_by_name("City").unwrap();
        let person = schema.type_by_name("Person").unwrap();
        let mayor = schema.field_by_name(city, "mayor").unwrap();
        let name = schema.field_by_name(person, "name").unwrap();
        let cities = cat.collection_by_name("Cities").unwrap();
        cat.add_index(IndexDef {
            name: "Cities_mayor_name".into(),
            collection: cities,
            path: vec![mayor],
            key: name,
            distinct_keys: 5000,
            clustered: false,
        });
        assert!(cat.find_index(cities, &[mayor], name).is_some());
        assert!(cat.find_index(cities, &[], name).is_none());
        assert_eq!(cat.check(&schema), Ok(()));
    }

    #[test]
    fn invalid_index_reported() {
        let (schema, mut cat) = setup();
        let city = schema.type_by_name("City").unwrap();
        let mayor = schema.field_by_name(city, "mayor").unwrap();
        let cities = cat.collection_by_name("Cities").unwrap();
        // Key is a reference field, not an attribute: invalid.
        cat.add_index(IndexDef {
            name: "bad".into(),
            collection: cities,
            path: vec![],
            key: mayor,
            distinct_keys: 1,
            clustered: false,
        });
        assert_eq!(
            cat.check(&schema),
            Err(CatalogError::IndexKey(IndexId::from_index(0), mayor))
        );
    }

    #[test]
    fn with_only_indexes_filters() {
        let (schema, mut cat) = setup();
        let city = schema.type_by_name("City").unwrap();
        let person = schema.type_by_name("Person").unwrap();
        let mayor = schema.field_by_name(city, "mayor").unwrap();
        let name = schema.field_by_name(person, "name").unwrap();
        let cities = cat.collection_by_name("Cities").unwrap();
        cat.add_index(IndexDef {
            name: "i1".into(),
            collection: cities,
            path: vec![mayor],
            key: name,
            distinct_keys: 10,
            clustered: false,
        });
        cat.add_index(IndexDef {
            name: "i2".into(),
            collection: cities,
            path: vec![],
            key: name,
            distinct_keys: 10,
            clustered: false,
        });
        let hash = cat.index_set_hash();
        let only = cat.with_only_indexes(&["i2"]);
        assert_eq!(only.indexes().count(), 1);
        assert!(only.index_by_name("i2").is_some());
        assert!(only.index_by_name("i1").is_none());
        assert_eq!(only.stats_epoch(), cat.stats_epoch() + 1);
        // The source keeps its own indexes.
        assert_eq!(cat.indexes().count(), 2);
        assert!(cat.index_by_name("i1").is_some());
        assert_eq!(cat.index_set_hash(), hash);
    }

    fn hist(values: std::ops::Range<i64>) -> Histogram {
        Histogram::build(values.map(crate::Value::Int).collect(), 4).unwrap()
    }

    /// A `Cities` collection and three field ids: `City.mayor` and
    /// `Person.boss` (references to `Person`) and `Person.name`, so
    /// `mayor.boss.name` is a two-link path. The catalog does not check
    /// ids against a schema.
    fn setup_paths() -> (Catalog, CollectionId, FieldId, FieldId, FieldId) {
        let mut cat = Catalog::new();
        let cities = cat.add_collection(CollectionDef {
            name: "Cities".into(),
            elem_type: TypeId::from_index(1),
            kind: CollectionKind::UserSet,
            cardinality: 10,
            obj_bytes: 100,
        });
        let [mayor, boss, name] = [0, 1, 2].map(FieldId::from_index);
        (cat, cities, mayor, boss, name)
    }

    #[test]
    fn histogram_on_a_two_link_path_resolves() {
        let (mut cat, cities, mayor, boss, name) = setup_paths();
        cat.set_histogram(cities, vec![mayor, boss], name, hist(0..100));
        cat.set_histogram(cities, vec![mayor], name, hist(0..10));
        assert_eq!(
            cat.histogram(cities, &[mayor, boss], name),
            Some(&hist(0..100))
        );
        assert_eq!(cat.histogram(cities, &[mayor], name), Some(&hist(0..10)));
        assert_eq!(cat.histogram(cities, &[boss, mayor], name), None);
        assert_eq!(cat.histogram(cities, &[], name), None);
        // A second histogram on the same path replaces the first.
        cat.set_histogram(cities, vec![mayor, boss], name, hist(0..50));
        assert_eq!(
            cat.histogram(cities, &[mayor, boss], name),
            Some(&hist(0..50))
        );
        assert_eq!(cat.histogram_count(), 2);
        let mut keys: Vec<_> = cat.histograms().map(|(k, _)| k).collect();
        keys.sort();
        assert_eq!(
            keys,
            [
                (cities, &[mayor][..], name),
                (cities, &[mayor, boss][..], name)
            ]
        );
    }

    #[test]
    fn a_clone_is_shared_until_written() {
        let (_, cat) = setup();
        let copy = cat.clone();
        assert!(Arc::ptr_eq(&cat.body, &copy.body));
        let mut written = cat.clone();
        written.set_fanout(FieldId::from_index(0), 3.0);
        assert!(!Arc::ptr_eq(&cat.body, &written.body));
        assert!(Arc::ptr_eq(&cat.body, &copy.body));
    }

    #[test]
    fn every_mutator_leaves_an_earlier_clone_alone() {
        let (mut cat, cities, mayor, boss, name) = setup_paths();
        let before = cat.clone();

        let people = cat.add_collection(CollectionDef {
            name: "extent(Person)".into(),
            elem_type: TypeId::from_index(0),
            kind: CollectionKind::Extent,
            cardinality: 100,
            obj_bytes: 50,
        });
        cat.add_index(IndexDef {
            name: "Cities_mayor_name".into(),
            collection: cities,
            path: vec![mayor],
            key: name,
            distinct_keys: 10,
            clustered: false,
        });
        cat.set_ref_domain(mayor, people);
        cat.set_fanout(boss, 2.0);
        cat.set_histogram(cities, vec![mayor], name, hist(0..10));

        assert_eq!(cat.collections().count(), 2);
        assert_eq!(cat.extent_of(TypeId::from_index(0)), Some(people));
        assert!(cat.index_by_name("Cities_mayor_name").is_some());
        assert_eq!(cat.ref_domain(mayor), Some(people));
        assert_eq!(cat.fanout(boss), 2.0);
        assert!(cat.histogram(cities, &[mayor], name).is_some());

        assert_eq!(before.collections().count(), 1);
        assert_eq!(before.collection_by_name("extent(Person)"), None);
        assert_eq!(before.extent_of(TypeId::from_index(0)), None);
        assert_eq!(before.indexes().count(), 0);
        assert_eq!(before.ref_domain(mayor), None);
        assert_eq!(before.fanout(boss), 5.0, "the default fan-out");
        assert_eq!(before.histogram_count(), 0);

        // One mutator at a time, each against a clone taken just before.
        let snap = cat.clone();
        cat.set_fanout(boss, 7.0);
        assert_eq!((snap.fanout(boss), cat.fanout(boss)), (2.0, 7.0));
        let snap = cat.clone();
        cat.set_ref_domain(mayor, cities);
        assert_eq!(snap.ref_domain(mayor), Some(people));
        assert_eq!(cat.ref_domain(mayor), Some(cities));
        let snap = cat.clone();
        cat.set_histogram(cities, vec![mayor], name, hist(0..20));
        assert_eq!(snap.histogram(cities, &[mayor], name), Some(&hist(0..10)));
        assert_eq!(cat.histogram(cities, &[mayor], name), Some(&hist(0..20)));
        let snap = cat.clone();
        cat.add_index(IndexDef {
            name: "Cities_name".into(),
            collection: cities,
            path: vec![],
            key: name,
            distinct_keys: 10,
            clustered: true,
        });
        assert_eq!((snap.indexes().count(), cat.indexes().count()), (1, 2));
        assert_ne!(snap.index_set_hash(), cat.index_set_hash());
    }

    #[test]
    fn an_epoch_bump_on_a_clone_does_not_move_the_original() {
        let (_, mut cat) = setup();
        cat.bump_stats_epoch();
        let mut copy = cat.clone();
        copy.bump_stats_epoch();
        copy.raise_stats_epoch_to(9);
        assert_eq!((cat.stats_epoch(), copy.stats_epoch()), (1, 9));
        // Moving the epoch never copies the body.
        assert!(Arc::ptr_eq(&cat.body, &copy.body));
    }

    #[test]
    fn pages_of_dense_packing() {
        let (_, cat) = setup();
        let cities = cat.collection_by_name("Cities").unwrap();
        // 4096 / 200 = 20 objects per page; 10_000 / 20 = 500 pages.
        assert_eq!(cat.pages_of(cities, 4096), 500);
    }
}
