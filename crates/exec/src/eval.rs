//! Predicate and operand evaluation over batch rows.
//!
//! Operands are resolved once, when a pipeline is opened: every variable
//! becomes a column of the input's layout, and a variable the input does
//! not bind is a [`ExecError::MalformedPlan`] before any row is read.
//! Evaluation is *total* — a dangling reference or unknown field surfaces
//! as a [`StoreError`], so queries can run against partially recovered
//! databases — and compares borrowed values: no `Value` is cloned per row.

use crate::engine::ExecError;
use oodb_algebra::{CmpOp, Operand, PredId, QueryEnv, VarId};
use oodb_object::{FieldId, Oid, Value};
use oodb_storage::{Store, StoreError};
use std::borrow::Cow;

/// The column binding `var` in a layout, or a malformed-plan error.
pub(crate) fn col_of(cols: &[VarId], var: VarId) -> Result<usize, ExecError> {
    cols.iter().position(|&c| c == var).ok_or_else(|| {
        ExecError::MalformedPlan(format!(
            "variable v{} is read but not bound by the operator's input",
            var.index()
        ))
    })
}

/// An operand with its variable resolved to a column.
#[derive(Clone, Debug)]
pub(crate) enum Slot<'a> {
    /// A constant of the query.
    Const(&'a Value),
    /// A field of the object bound in a column.
    Field {
        /// Column holding the object.
        col: usize,
        /// The field read from it.
        field: FieldId,
    },
    /// The identity bound in a column, as a reference value.
    Oid(usize),
}

impl<'a> Slot<'a> {
    /// Resolves `op` against the layout `cols`.
    pub fn resolve(op: &'a Operand, cols: &[VarId]) -> Result<Self, ExecError> {
        Ok(match op {
            Operand::Const(v) => Slot::Const(v),
            Operand::Attr { var, field } | Operand::RefField { var, field } => Slot::Field {
                col: col_of(cols, *var)?,
                field: *field,
            },
            Operand::VarOid(v) | Operand::VarRef(v) => Slot::Oid(col_of(cols, *v)?),
        })
    }

    /// The operand's value on one row.
    pub fn eval(&self, store: &'a Store, row: &[Oid]) -> Result<Cow<'a, Value>, StoreError> {
        Ok(match *self {
            Slot::Const(v) => Cow::Borrowed(v),
            Slot::Field { col, field } => Cow::Borrowed(store.try_read_field(row[col], field)?),
            Slot::Oid(col) => Cow::Owned(Value::Ref(row[col])),
        })
    }
}

/// One interned predicate (a conjunction) resolved against a layout.
#[derive(Clone, Debug)]
pub(crate) struct Pred<'a> {
    terms: Vec<(Slot<'a>, CmpOp, Slot<'a>)>,
}

impl<'a> Pred<'a> {
    /// Resolves every term of predicate `id` against the layout `cols`.
    pub fn resolve(env: &'a QueryEnv, id: PredId, cols: &[VarId]) -> Result<Self, ExecError> {
        let terms = env.preds.pred(id).terms.iter().map(|t| {
            Ok((
                Slot::resolve(&t.left, cols)?,
                t.op,
                Slot::resolve(&t.right, cols)?,
            ))
        });
        Ok(Pred {
            terms: terms.collect::<Result<_, ExecError>>()?,
        })
    }

    /// Evaluates the conjunction on one row. Returns `(result,
    /// terms_evaluated)` — the count feeds CPU accounting.
    pub fn test(&self, store: &'a Store, row: &[Oid]) -> Result<(bool, u64), StoreError> {
        let mut evaluated = 0;
        for (left, op, right) in &self.terms {
            evaluated += 1;
            let (l, r) = (left.eval(store, row)?, right.eval(store, row)?);
            // Incomparable (NULL-ish) ⇒ the term fails.
            if !l.partial_cmp_val(&r).is_some_and(|ord| op.test(ord)) {
                return Ok((false, evaluated));
            }
        }
        Ok((true, evaluated))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_algebra::QueryBuilder;
    use oodb_storage::{generate_paper_db, GenConfig};

    #[test]
    fn operand_and_pred_eval_against_store() {
        let (store, m) = generate_paper_db(GenConfig::small());
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (cities, c) = qb.get(m.ids.cities, "c");
        let (_, cm) = qb.mat(cities, c, m.ids.city_mayor, "cm");
        let env = qb.into_env();

        let city = store.members(m.ids.cities)[0];
        let mayor = store
            .read_field(city, m.ids.city_mayor)
            .as_ref_oid()
            .unwrap();
        let (cols, row) = ([cm, c], [mayor, city]);

        // RefField equality against VarOid: c.mayor == cm.self holds.
        let pred = env.preds.cmp(
            Operand::RefField {
                var: c,
                field: m.ids.city_mayor,
            },
            CmpOp::Eq,
            Operand::VarOid(cm),
        );
        let resolved = Pred::resolve(&env, pred, &cols).unwrap();
        assert_eq!(resolved.test(&store, &row), Ok((true, 1)));

        // Attribute read matches direct store access, borrowed not cloned.
        let name = Operand::Attr {
            var: cm,
            field: m.ids.person_name,
        };
        let value = Slot::resolve(&name, &cols)
            .unwrap()
            .eval(&store, &row)
            .unwrap();
        assert!(matches!(value, Cow::Borrowed(_)));
        assert_eq!(&*value, store.read_field(mayor, m.ids.person_name));

        // A layout that does not bind the variable is refused up front.
        let err = Pred::resolve(&env, pred, &[c]).unwrap_err();
        assert!(matches!(err, ExecError::MalformedPlan(_)), "{err:?}");
    }

    #[test]
    fn dangling_reference_is_a_typed_error() {
        let (store, m) = generate_paper_db(GenConfig::small());
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (_, c) = qb.get(m.ids.cities, "c");
        let _env = qb.into_env();

        // Fabricate an OID one past the city population: same type, no
        // backing object — exactly what a partially replayed log yields.
        let city_count = store.members(m.ids.cities).len() as u32;
        let ghost = Oid::new(m.ids.city, city_count + 7);
        let name = Operand::Attr {
            var: c,
            field: m.ids.city_name,
        };
        let res = Slot::resolve(&name, &[c]).unwrap().eval(&store, &[ghost]);
        assert!(matches!(res, Err(StoreError::UnknownOid(_))));
    }
}
