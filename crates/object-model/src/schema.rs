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

arena_id! {
    /// Index of a type within a [`Schema`].
    TypeId
}

arena_id! {
    /// Index of a field within a [`Schema`] (global across types, so a
    /// `FieldId` alone identifies both the owning type and the field).
    FieldId
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

    /// `ty`, then its supertypes, nearest first. The chain ends because a
    /// supertype is declared before its subtypes ([`SchemaError::Supertype`]).
    fn ancestors(&self, ty: TypeId) -> impl Iterator<Item = TypeId> + '_ {
        std::iter::successors(Some(ty), |&t| self.body.types[t.index()].supertype)
    }

    /// Resolves a field by name on a type, walking up the inheritance
    /// chain (mirrors C++ member lookup).
    pub fn field_by_name(&self, ty: TypeId, name: &str) -> Option<FieldId> {
        self.ancestors(ty)
            .find_map(|t| self.body.field_by_name[t.index()].get(name).copied())
    }

    /// All fields visible on a type, inherited first (supertype order),
    /// matching the physical layout the storage manager uses.
    pub fn fields_of(&self, ty: TypeId) -> Vec<FieldId> {
        let chain: Vec<TypeId> = self.ancestors(ty).collect();
        let own = |t: &TypeId| self.body.types[t.index()].fields.iter().copied();
        chain.iter().rev().flat_map(own).collect()
    }

    /// True if `sub` is `sup` or a (transitive) subtype of it.
    pub fn is_subtype(&self, sub: TypeId, sup: TypeId) -> bool {
        self.ancestors(sub).any(|t| t == sup)
    }
}

/// Incremental schema construction with two-phase field registration so
/// mutually-referencing types can be declared in any order: the builder
/// records declarations, and [`SchemaBuilder::try_build`] checks them all
/// at once.
#[derive(Default)]
pub struct SchemaBuilder {
    types: Vec<TypeDef>,
    fields: Vec<FieldDef>,
}

/// Why declarations do not make a schema ([`SchemaBuilder::try_build`]).
/// The rules are the object model's: every reader of a schema — the
/// optimizer, the store, log replay — relies on them holding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemaError {
    /// A type's name repeats an earlier type's.
    DuplicateType(TypeId),
    /// A field's name repeats an earlier field's on the same type.
    DuplicateField(FieldId),
    /// A field's owner or reference target is not a declared type.
    UndeclaredType(FieldId),
    /// A type's supertype is not a type declared before it — which rules
    /// out every supertype cycle, so each chain ends.
    Supertype(TypeId),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::DuplicateType(t) => write!(f, "duplicate type name at {t:?}"),
            SchemaError::DuplicateField(x) => write!(f, "duplicate field name at {x:?}"),
            SchemaError::UndeclaredType(x) => write!(f, "{x:?} names an undeclared type"),
            SchemaError::Supertype(t) => write!(f, "{t:?}'s supertype is not declared before it"),
        }
    }
}

impl std::error::Error for SchemaError {}

impl SchemaBuilder {
    /// Declares a type (fields are added separately).
    pub fn add_type(&mut self, name: &str, supertype: Option<TypeId>) -> TypeId {
        self.types.push(TypeDef {
            name: name.to_string(),
            supertype,
            fields: Vec::new(),
        });
        TypeId::from_index(self.types.len() - 1)
    }

    /// Adds a field to a type.
    pub fn add_field(&mut self, owner: TypeId, name: &str, kind: FieldKind) -> FieldId {
        self.fields.push(FieldDef {
            name: name.to_string(),
            owner,
            kind,
        });
        FieldId::from_index(self.fields.len() - 1)
    }

    /// Finalizes a schema declared in code, where a refusal is a bug.
    pub fn build(self) -> Schema {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Finalizes the schema, refusing declarations that break a rule of
    /// [`SchemaError`]. Ids come out as declared.
    pub fn try_build(self) -> Result<Schema, SchemaError> {
        let mut body = SchemaBody {
            field_by_name: vec![HashMap::new(); self.types.len()],
            types: self.types,
            ..SchemaBody::default()
        };
        for (i, t) in body.types.iter().enumerate() {
            let id = TypeId::from_index(i);
            if t.supertype.is_some_and(|s| s >= id) {
                return Err(SchemaError::Supertype(id));
            }
            if body.type_by_name.insert(t.name.clone(), id).is_some() {
                return Err(SchemaError::DuplicateType(id));
            }
        }
        let n_types = body.types.len();
        let declared = |t: TypeId| t.index() < n_types;
        for (i, f) in self.fields.iter().enumerate() {
            let id = FieldId::from_index(i);
            if !declared(f.owner) || !f.kind.target().is_none_or(declared) {
                return Err(SchemaError::UndeclaredType(id));
            }
            if body.field_by_name[f.owner.index()]
                .insert(f.name.clone(), id)
                .is_some()
            {
                return Err(SchemaError::DuplicateField(id));
            }
            body.types[f.owner.index()].fields.push(id);
        }
        body.fields = self.fields;
        Ok(Schema {
            body: Arc::new(body),
        })
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
        b.build();
    }

    /// Type `A` with attribute `x`, then one declaration per rule, each
    /// refused with the id it breaks at.
    #[test]
    fn each_broken_rule_is_refused() {
        fn refusal<T>(declare: impl FnOnce(&mut SchemaBuilder, TypeId) -> T) -> SchemaError {
            let mut b = Schema::builder();
            let a = b.add_type("A", None);
            b.add_field(a, "x", FieldKind::Attr(AttrType::Int));
            declare(&mut b, a);
            b.try_build().unwrap_err()
        }
        let (t1, f1) = (TypeId::from_index(1), FieldId::from_index(1));
        let int = FieldKind::Attr(AttrType::Int);
        assert_eq!(
            refusal(|b, _| b.add_type("A", None)),
            SchemaError::DuplicateType(t1)
        );
        assert_eq!(
            refusal(|b, _| b.add_type("B", Some(t1))),
            SchemaError::Supertype(t1)
        );
        assert_eq!(
            refusal(|b, a| b.add_field(a, "x", int)),
            SchemaError::DuplicateField(f1)
        );
        assert_eq!(
            refusal(|b, a| b.add_field(a, "y", FieldKind::Ref(t1))),
            SchemaError::UndeclaredType(f1)
        );
        assert_eq!(
            refusal(|b, _| b.add_field(t1, "y", int)),
            SchemaError::UndeclaredType(f1)
        );
    }
}
