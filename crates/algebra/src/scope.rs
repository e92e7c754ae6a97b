//! Scope variables.
//!
//! "The scoping rules in the optimizer input algebra are very simple. An
//! object component gets into scope either by being scanned (captured using
//! the logical `Get` operator ...) or by being referenced (captured in the
//! `Mat` operator). Components remain in scope until a projection discards
//! them."
//!
//! Every variable records its *origin* — how it entered scope. Origins are
//! what let the assembly enforcer materialize a missing component at any
//! point in a plan: a variable with origin `Mat { src, field }` can be
//! brought into memory whenever `src` already is.

use oodb_object::{CollectionId, FieldId, TypeId};
use std::fmt;

/// Index of a scope variable within a query's [`ScopeArena`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(u32);

impl VarId {
    /// Constructs from a raw arena index.
    pub fn from_index(i: usize) -> Self {
        VarId(i as u32)
    }
    /// The raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VarId({})", self.0)
    }
}

/// How a variable entered scope.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum VarOrigin {
    /// Scanned from a collection (`Get Cities: c`).
    Get(CollectionId),
    /// Materialized through a reference (`Mat c.mayor`): `field == None`
    /// dereferences the reference value held by `src` itself (the form
    /// produced after an `Unnest`, e.g. `Mat m.employee: e`).
    Mat {
        /// The variable whose reference is followed.
        src: VarId,
        /// The single-valued reference field, or `None` to dereference a
        /// reference-valued variable directly.
        field: Option<FieldId>,
    },
    /// Revealed by unnesting a set-valued field (`Unnest t.team_members`).
    /// The variable holds *references*, not objects; a subsequent `Mat`
    /// resolves them.
    Unnest {
        /// The variable owning the set-valued field.
        src: VarId,
        /// The set-valued field.
        field: FieldId,
    },
}

/// A scope variable.
#[derive(Clone, Debug)]
pub struct ScopeVar {
    /// Short name (`c`, `e`, `m`, ...).
    pub name: String,
    /// Pretty path label for figure-style rendering (`c.mayor`,
    /// `m.employee`); equals `name` unless set explicitly.
    pub label: String,
    /// Type of the objects (or referenced objects) this variable ranges
    /// over.
    pub ty: TypeId,
    /// How the variable entered scope.
    pub origin: VarOrigin,
}

impl ScopeVar {
    /// Whether the variable holds raw references (an `Unnest` output)
    /// rather than objects. Reference values travel inside tuples, so they
    /// are trivially "present in memory" and never need enforcement.
    pub fn is_ref(&self) -> bool {
        matches!(self.origin, VarOrigin::Unnest { .. })
    }
}

/// Arena of a query's scope variables.
#[derive(Clone, Debug, Default)]
pub struct ScopeArena {
    vars: Vec<ScopeVar>,
}

impl ScopeArena {
    /// The most variables one query may register, the [`crate::VarSet`]
    /// width; `zql::simplify` checks it before it registers one.
    pub const CAPACITY: usize = 64;

    /// Registers a variable; the arena must hold fewer than
    /// [`ScopeArena::CAPACITY`].
    pub fn add(&mut self, name: &str, ty: TypeId, origin: VarOrigin) -> VarId {
        self.add_labeled(name, name, ty, origin)
    }

    /// Registers a variable with a distinct figure label (e.g. name `e`,
    /// label `m.employee`).
    pub fn add_labeled(&mut self, name: &str, label: &str, ty: TypeId, origin: VarOrigin) -> VarId {
        debug_assert!(self.vars.len() < Self::CAPACITY, "scope arena full");
        let id = VarId::from_index(self.vars.len());
        self.vars.push(ScopeVar {
            name: name.to_string(),
            label: label.to_string(),
            ty,
            origin,
        });
        id
    }

    /// Variable metadata.
    pub fn var(&self, id: VarId) -> &ScopeVar {
        &self.vars[id.index()]
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// True when no variables are registered.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// All variables.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, &ScopeVar)> {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, v)| (VarId::from_index(i), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origins_and_ref_flag() {
        let mut arena = ScopeArena::default();
        let ty = TypeId::from_index(0);
        let coll = CollectionId::from_index(0);
        let c = arena.add("c", ty, VarOrigin::Get(coll));
        let m = arena.add(
            "m",
            ty,
            VarOrigin::Unnest {
                src: c,
                field: FieldId::from_index(0),
            },
        );
        let e = arena.add(
            "e",
            ty,
            VarOrigin::Mat {
                src: m,
                field: None,
            },
        );
        assert!(!arena.var(c).is_ref());
        assert!(arena.var(m).is_ref());
        assert!(!arena.var(e).is_ref());
        assert_eq!(arena.len(), 3);
    }
}
