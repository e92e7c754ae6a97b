//! Schema: user-defined types, fields, and single inheritance.
//!
//! The paper's data model is the C++ type system as seen through ZQL[C++]:
//! classes with embedded attributes, single-valued references to other
//! classes, and set-valued references. The distinction between *embedded
//! attributes* and *references* is load-bearing for the optimizer — the
//! paper notes that "the `name` instance variables are similar to record
//! fields that need not be explicitly materialized", while each reference
//! link of a path expression becomes a `Mat` operator.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Index of a type within a [`Schema`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(u32);

impl TypeId {
    /// Constructs from a raw arena index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        TypeId(i as u32)
    }
    /// The raw arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TypeId({})", self.0)
    }
}

/// Index of a field within a [`Schema`] (global across types, so a
/// `FieldId` alone identifies both the owning type and the field).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldId(u32);

impl FieldId {
    /// Constructs from a raw arena index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        FieldId(i as u32)
    }
    /// The raw arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for FieldId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FieldId({})", self.0)
    }
}

/// Primitive attribute types (embedded values; no identity).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum AttrType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// Interned string.
    Str,
    /// Boolean.
    Bool,
    /// Calendar date (days since epoch), the paper's `Date` ADT.
    Date,
}

/// What kind of state a field holds.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum FieldKind {
    /// Embedded attribute — record-field-like, never materialized.
    Attr(AttrType),
    /// Single-valued reference to an object of the given type.
    Ref(TypeId),
    /// Set-valued reference (a set of OIDs of the given type); the source
    /// of `Unnest` operators during simplification.
    RefSet(TypeId),
}

impl FieldKind {
    /// The referenced type, for `Ref`/`RefSet` fields.
    pub fn target(self) -> Option<TypeId> {
        match self {
            FieldKind::Ref(t) | FieldKind::RefSet(t) => Some(t),
            FieldKind::Attr(_) => None,
        }
    }

    /// True for embedded attributes.
    pub fn is_attr(self) -> bool {
        matches!(self, FieldKind::Attr(_))
    }
}

/// A field declaration.
#[derive(Clone, Debug)]
pub struct FieldDef {
    /// Field name as written in queries (e.g. `dept`, `team_members`).
    pub name: String,
    /// Owning type.
    pub owner: TypeId,
    /// Kind of state.
    pub kind: FieldKind,
}

/// A type declaration.
#[derive(Clone, Debug)]
pub struct TypeDef {
    /// Type name (e.g. `Employee`).
    pub name: String,
    /// Optional supertype (single inheritance, as in C++/ZQL).
    pub supertype: Option<TypeId>,
    /// Fields declared directly on this type (inherited fields are reached
    /// via [`Schema::fields_of`]).
    pub fields: Vec<FieldId>,
}

/// A schema: the closed world of types the database knows about.
///
/// Construction goes through [`SchemaBuilder`] so that every name lookup
/// after `build` is O(1) and infallible `TypeId`/`FieldId` indexing is safe.
/// A built schema is immutable and shared: `clone` bumps a reference
/// count.
#[derive(Clone, Debug, Default)]
pub struct Schema {
    body: Arc<SchemaBody>,
}

#[derive(Debug, Default)]
struct SchemaBody {
    types: Vec<TypeDef>,
    fields: Vec<FieldDef>,
    type_by_name: HashMap<String, TypeId>,
    /// Per type, parallel to `types`: the name of each field declared
    /// directly on it -> its `FieldId`. Inherited fields are found by
    /// walking the supertype chain.
    field_by_name: Vec<HashMap<String, FieldId>>,
}

impl Schema {
    /// Starts building a schema.
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder::default()
    }

    /// All types.
    pub fn types(&self) -> impl Iterator<Item = (TypeId, &TypeDef)> {
        self.body
            .types
            .iter()
            .enumerate()
            .map(|(i, t)| (TypeId::from_index(i), t))
    }

    /// Number of types.
    pub fn type_count(&self) -> usize {
        self.body.types.len()
    }

    /// Definition of a type.
    pub fn ty(&self, id: TypeId) -> &TypeDef {
        &self.body.types[id.index()]
    }

    /// Definition of a field.
    pub fn field(&self, id: FieldId) -> &FieldDef {
        &self.body.fields[id.index()]
    }

    /// Number of fields across all types. `FieldId`s are dense in
    /// `0..field_count()`, in declaration order — the invariant the
    /// durability schema codec round-trips on.
    pub fn field_count(&self) -> usize {
        self.body.fields.len()
    }

    /// Looks a type up by name.
    pub fn type_by_name(&self, name: &str) -> Option<TypeId> {
        self.body.type_by_name.get(name).copied()
    }

    /// Resolves a field by name on a type, walking up the inheritance
    /// chain (mirrors C++ member lookup).
    pub fn field_by_name(&self, ty: TypeId, name: &str) -> Option<FieldId> {
        let mut cur = Some(ty);
        while let Some(t) = cur {
            if let Some(&f) = self.body.field_by_name[t.index()].get(name) {
                return Some(f);
            }
            cur = self.body.types[t.index()].supertype;
        }
        None
    }

    /// All fields visible on a type, inherited first (supertype order),
    /// matching the physical layout the storage manager uses.
    pub fn fields_of(&self, ty: TypeId) -> Vec<FieldId> {
        let mut chain = Vec::new();
        let mut cur = Some(ty);
        while let Some(t) = cur {
            chain.push(t);
            cur = self.body.types[t.index()].supertype;
        }
        let mut out = Vec::new();
        for t in chain.into_iter().rev() {
            out.extend(self.body.types[t.index()].fields.iter().copied());
        }
        out
    }

    /// True if `sub` is `sup` or a (transitive) subtype of it.
    pub fn is_subtype(&self, sub: TypeId, sup: TypeId) -> bool {
        let mut cur = Some(sub);
        while let Some(t) = cur {
            if t == sup {
                return true;
            }
            cur = self.body.types[t.index()].supertype;
        }
        false
    }
}

/// Incremental schema construction with two-phase field registration so
/// mutually-referencing types can be declared in any order.
#[derive(Default)]
pub struct SchemaBuilder {
    body: SchemaBody,
}

impl SchemaBuilder {
    /// Declares a type (fields are added separately).
    pub fn add_type(&mut self, name: &str, supertype: Option<TypeId>) -> TypeId {
        let body = &mut self.body;
        assert!(
            !body.type_by_name.contains_key(name),
            "duplicate type name {name:?}"
        );
        let id = TypeId::from_index(body.types.len());
        body.types.push(TypeDef {
            name: name.to_string(),
            supertype,
            fields: Vec::new(),
        });
        body.field_by_name.push(HashMap::new());
        body.type_by_name.insert(name.to_string(), id);
        id
    }

    /// Adds a field to a previously declared type.
    pub fn add_field(&mut self, owner: TypeId, name: &str, kind: FieldKind) -> FieldId {
        let body = &mut self.body;
        assert!(
            !body.field_by_name[owner.index()].contains_key(name),
            "duplicate field {name:?} on type {}",
            body.types[owner.index()].name
        );
        let id = FieldId::from_index(body.fields.len());
        body.fields.push(FieldDef {
            name: name.to_string(),
            owner,
            kind,
        });
        body.types[owner.index()].fields.push(id);
        body.field_by_name[owner.index()].insert(name.to_string(), id);
        id
    }

    /// Finalizes the schema.
    pub fn build(self) -> Schema {
        Schema {
            body: Arc::new(self.body),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> (Schema, TypeId, TypeId) {
        let mut b = Schema::builder();
        let person = b.add_type("Person", None);
        b.add_field(person, "name", FieldKind::Attr(AttrType::Str));
        b.add_field(person, "age", FieldKind::Attr(AttrType::Int));
        let emp = b.add_type("Employee", Some(person));
        b.add_field(emp, "salary", FieldKind::Attr(AttrType::Int));
        (b.build(), person, emp)
    }

    #[test]
    fn inherited_field_lookup() {
        let (s, _person, emp) = toy();
        let f = s.field_by_name(emp, "name").expect("inherited name");
        assert_eq!(s.field(f).name, "name");
        assert!(s.field_by_name(emp, "salary").is_some());
        assert!(s.field_by_name(emp, "nonexistent").is_none());
    }

    #[test]
    fn field_lookup_walks_a_two_step_chain() {
        let mut b = Schema::builder();
        let person = b.add_type("Person", None);
        let name = b.add_field(person, "name", FieldKind::Attr(AttrType::Str));
        let emp = b.add_type("Employee", Some(person));
        let mgr = b.add_type("Manager", Some(emp));
        let salary = b.add_field(emp, "salary", FieldKind::Attr(AttrType::Int));
        let s = b.build();
        assert_eq!(s.field_by_name(mgr, "name"), Some(name));
        assert_eq!(s.field_by_name(mgr, "salary"), Some(salary));
        assert_eq!(s.field_by_name(person, "salary"), None);
        assert_eq!(s.field_by_name(mgr, "bonus"), None);
    }

    #[test]
    fn a_clone_shares_the_built_schema() {
        let (s, _, emp) = toy();
        let copy = s.clone();
        assert!(Arc::ptr_eq(&s.body, &copy.body));
        assert_eq!(copy.field_by_name(emp, "age"), s.field_by_name(emp, "age"));
    }

    #[test]
    fn layout_puts_inherited_fields_first() {
        let (s, _person, emp) = toy();
        let names: Vec<_> = s
            .fields_of(emp)
            .into_iter()
            .map(|f| s.field(f).name.clone())
            .collect();
        assert_eq!(names, ["name", "age", "salary"]);
    }

    #[test]
    fn subtype_relation() {
        let (s, person, emp) = toy();
        assert!(s.is_subtype(emp, person));
        assert!(s.is_subtype(person, person));
        assert!(!s.is_subtype(person, emp));
    }

    #[test]
    fn base_field_not_visible_on_unrelated_type() {
        let mut b = Schema::builder();
        let a = b.add_type("A", None);
        b.add_field(a, "x", FieldKind::Attr(AttrType::Int));
        let c = b.add_type("C", None);
        let s = b.build();
        assert!(s.field_by_name(c, "x").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate type name")]
    fn duplicate_type_panics() {
        let mut b = Schema::builder();
        b.add_type("A", None);
        b.add_type("A", None);
    }
}
