//! Result rows as the plan root hands them to its consumer, and tuples:
//! the per-variable object bindings of one collected row.

use oodb_algebra::VarId;
use oodb_object::{Oid, Value};
use std::borrow::Cow;

/// One result row at the plan root, borrowed for the duration of the
/// consumer's call: nothing has been cloned or collected yet.
#[derive(Clone, Copy, Debug)]
pub enum RootRow<'r> {
    /// The cells of a root projection, read straight from the store.
    Cells(&'r [Cow<'r, Value>]),
    /// An unprojected root's bindings: the variable each column binds —
    /// the same layout for every row of a run — and the row.
    Bound(&'r [VarId], &'r [Oid]),
}

/// A result row binding scope variables to object identities — the row
/// type of [`crate::ExecResult::Tuples`]. The engine itself works on flat
/// batches; tuples are built once, at the plan root.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Tuple {
    slots: Vec<Option<Oid>>,
}

impl Tuple {
    /// A tuple over `n_vars` variables binding `cols[i]` to `row[i]`.
    pub(crate) fn from_row(n_vars: usize, cols: &[VarId], row: &[Oid]) -> Self {
        let mut slots = vec![None; n_vars];
        for (var, &oid) in cols.iter().zip(row) {
            slots[var.index()] = Some(oid);
        }
        Tuple { slots }
    }

    /// The binding of a variable; panics when unbound (the plan's root
    /// does not produce it).
    pub fn get(&self, var: VarId) -> Oid {
        self.try_get(var)
            .unwrap_or_else(|| panic!("variable v{} unbound in tuple", var.index()))
    }

    /// The binding, if any.
    pub fn try_get(&self, var: VarId) -> Option<Oid> {
        self.slots.get(var.index()).copied().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_object::TypeId;

    fn oid(i: u32) -> Oid {
        Oid::new(TypeId::from_index(0), i)
    }
    fn v(i: usize) -> VarId {
        VarId::from_index(i)
    }

    #[test]
    fn rows_bind_their_columns() {
        let t = Tuple::from_row(4, &[v(2), v(0)], &[oid(7), oid(1)]);
        assert_eq!(t.get(v(2)), oid(7));
        assert_eq!(t.get(v(0)), oid(1));
        assert_eq!(t.try_get(v(1)), None);
        assert_eq!(
            t.try_get(v(9)),
            None,
            "out of range is unbound, not a panic"
        );
    }

    #[test]
    #[should_panic(expected = "unbound")]
    fn unbound_get_panics() {
        Tuple::from_row(2, &[], &[]).get(v(1));
    }
}
