//! Predicate and operand evaluation over batch rows.
//!
//! Operands are resolved once, when a pipeline is opened: every variable
//! becomes a column of the input's layout, and a variable the input does
//! not bind is a [`ExecError::MalformedPlan`] before any row is read.
//! Evaluation is *total* — a dangling reference or unknown field surfaces
//! as a [`StoreError`], so queries can run against partially recovered
//! databases — and compares borrowed values: no `Value` is cloned per row.
//!
//! An operator evaluates an operand over a whole batch at a time
//! ([`Slot::eval_each`], [`Pred::filter`]): the store is column-major, so
//! a field resolves to its column once per run of same-typed objects and
//! the rest is one indexed load per row. [`Slot::eval`] and
//! [`Pred::test`] remain for the places that hold a single row.

use crate::batch::Batch;
use crate::engine::ExecError;
use oodb_algebra::{CmpOp, Operand, PredId, QueryEnv, VarId};
use oodb_object::{FieldId, Oid, TypeId, Value};
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

    /// The operand's value on each of `rows` in turn, handed to `each`:
    /// what [`Slot::eval`] returns row by row, first error included. A
    /// batch column may mix a type with its subtypes, so a field's store
    /// column is looked up once per run of same-typed objects. One loop
    /// with one call of `each` for all three kinds of operand: called from
    /// a loop per kind, a consumer's closure is not inlined into any.
    pub fn eval_each<'r>(
        &self,
        store: &'a Store,
        rows: impl Iterator<Item = &'r [Oid]>,
        mut each: impl FnMut(Cow<'a, Value>),
    ) -> Result<(), StoreError> {
        let mut run: Option<(TypeId, &'a [Value])> = None;
        for row in rows {
            each(match *self {
                Slot::Const(v) => Cow::Borrowed(v),
                Slot::Oid(col) => Cow::Owned(Value::Ref(row[col])),
                Slot::Field { col, field } => {
                    let oid = row[col];
                    let column = match run {
                        Some((ty, column)) if ty == oid.type_id() => column,
                        _ => {
                            // Row by row, a dangling oid is reported
                            // before a field its type does not have.
                            let column = store
                                .try_column(oid.type_id(), field)
                                .map_err(|e| store.try_read_field(oid, field).err().unwrap_or(e))?;
                            run = Some((oid.type_id(), column));
                            column
                        }
                    };
                    let value = column.get(oid.seq() as usize);
                    Cow::Borrowed(value.ok_or(StoreError::UnknownOid(oid))?)
                }
            });
        }
        Ok(())
    }

    /// The operand's value on each of `rows`.
    pub fn values<'r>(
        &self,
        store: &'a Store,
        rows: impl ExactSizeIterator<Item = &'r [Oid]>,
    ) -> Result<Vec<Cow<'a, Value>>, StoreError> {
        let mut values = Vec::with_capacity(rows.len());
        self.eval_each(store, rows, |v| values.push(v))?;
        Ok(values)
    }

    /// Appends the operand's [`Value::hash_key`] on each of `rows` to
    /// `keys`; `None` for a value that can match nothing.
    pub fn hash_keys<'r>(
        &self,
        store: &'a Store,
        rows: impl Iterator<Item = &'r [Oid]>,
        keys: &mut Vec<Option<u64>>,
    ) -> Result<(), StoreError> {
        self.eval_each(store, rows, |v| keys.push(v.hash_key()))
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

    /// Evaluates the conjunction on one row, its first `decided` terms
    /// taken as found true already. Returns `(result, terms_evaluated)`,
    /// those included — the count feeds CPU accounting.
    pub fn test(
        &self,
        store: &'a Store,
        row: &[Oid],
        decided: usize,
    ) -> Result<(bool, u64), StoreError> {
        let mut evaluated = decided as u64;
        for (left, op, right) in &self.terms[decided..] {
            evaluated += 1;
            let (l, r) = (left.eval(store, row)?, right.eval(store, row)?);
            // Incomparable (NULL-ish) ⇒ the term fails.
            if !l.partial_cmp_val(&r).is_some_and(|ord| op.test(ord)) {
                return Ok((false, evaluated));
            }
        }
        Ok((true, evaluated))
    }

    /// Keeps the rows of `batch` the conjunction holds on, in order, and
    /// returns the number of terms evaluated. Each term runs over the rows
    /// every earlier term let through, so the count is the one
    /// [`Pred::test`] row by row adds up to.
    pub fn filter(&self, store: &'a Store, batch: &mut Batch) -> Result<u64, StoreError> {
        let mut live: Vec<u32> = (0..batch.len() as u32).collect();
        let mut evaluated = 0;
        for (left, op, right) in &self.terms {
            evaluated += live.len() as u64;
            let rows = || live.iter().map(|&r| batch.row(r as usize));
            let lefts = left.values(store, rows())?;
            let mut passed = Vec::with_capacity(live.len());
            let mut at = 0;
            right.eval_each(store, rows(), |r| {
                // Incomparable (NULL-ish) ⇒ the term fails.
                if lefts[at]
                    .partial_cmp_val(&r)
                    .is_some_and(|ord| op.test(ord))
                {
                    passed.push(live[at]);
                }
                at += 1;
            })?;
            live = passed;
        }
        batch.keep_rows(&live);
        Ok(evaluated)
    }
}

#[cfg(test)]
pub(crate) mod tests {
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
        assert_eq!(resolved.test(&store, &row, 0), Ok((true, 1)));

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

    /// What the batch forms must equal: the same slot or predicate applied
    /// to one row after another, stopping at the first error.
    mod rowwise {
        use super::*;

        pub fn values(slot: &Slot, store: &Store, b: &Batch) -> Result<Vec<Value>, StoreError> {
            let each = b.rows().map(|row| Ok(slot.eval(store, row)?.into_owned()));
            each.collect()
        }

        pub fn filter(
            pred: &Pred,
            store: &Store,
            b: &Batch,
        ) -> Result<(Vec<Oid>, u64), StoreError> {
            let (mut kept, mut evaluated) = (Vec::new(), 0);
            for row in b.rows() {
                let (ok, n) = pred.test(store, row, 0)?;
                evaluated += n;
                if ok {
                    kept.extend_from_slice(row);
                }
            }
            Ok((kept, evaluated))
        }
    }

    /// Every batch form of `slots` and `preds` on `batch` against its
    /// row-at-a-time definition, errors included.
    fn assert_batch_forms_agree(store: &Store, batch: &Batch, slots: &[Slot], preds: &[Pred]) {
        for slot in slots {
            // Projected cells and sort keys.
            let want = rowwise::values(slot, store, batch);
            let got = slot.values(store, batch.rows());
            let got = got.map(|vs| vs.into_iter().map(Cow::into_owned).collect::<Vec<_>>());
            assert_eq!(got, want, "{slot:?}");
            // Join keys: `None` for what can match nothing.
            let mut keys = Vec::new();
            let got = slot
                .hash_keys(store, batch.rows(), &mut keys)
                .map(|()| keys);
            let want = want.map(|vs| vs.iter().map(Value::hash_key).collect::<Vec<_>>());
            assert_eq!(got, want, "{slot:?}");
        }
        for pred in preds {
            let mut kept = batch.clone();
            let got = pred.filter(store, &mut kept).map(|n| (kept.data, n));
            assert_eq!(got, rowwise::filter(pred, store, batch), "{pred:?}");
        }
    }

    /// `Base { n, tag, peer, set }` and `Derived: Base { extra }`, 40 and
    /// 25 objects, in one collection that interleaves them. `n` runs
    /// through ints, the floats equal to them, other floats and `Null`.
    pub(crate) struct Mixed {
        pub store: Store,
        pub members: Vec<Oid>,
        slots: Vec<Slot<'static>>,
        preds: Vec<Pred<'static>>,
        pub base: TypeId,
    }

    pub(crate) fn mixed() -> Mixed {
        use oodb_object::{AttrType, Catalog, FieldKind, Schema};
        use oodb_storage::datagen::columns;
        const TWO: Value = Value::Int(2);
        let mut b = Schema::builder();
        let base = b.add_type("Base", None);
        let n = b.add_field(base, "n", FieldKind::Attr(AttrType::Int));
        let tag = b.add_field(base, "tag", FieldKind::Attr(AttrType::Str));
        let peer = b.add_field(base, "peer", FieldKind::Ref(base));
        let set = b.add_field(base, "set", FieldKind::RefSet(base));
        let derived = b.add_type("Derived", Some(base));
        let extra = b.add_field(derived, "extra", FieldKind::Attr(AttrType::Int));
        let mut store = Store::new(b.build(), Catalog::new());
        let row = |ty, i: u32| {
            let other = if i.is_multiple_of(3) { derived } else { base };
            [
                match i % 4 {
                    0 => Value::Null,
                    1 => Value::Int(i64::from(i / 8)),
                    2 => Value::Float(f64::from(i / 8)),
                    _ => Value::Float(f64::from(i) + 0.5),
                },
                if i.is_multiple_of(5) {
                    Value::Null
                } else {
                    Value::str(&format!("t{}", i % 7))
                },
                Value::Ref(Oid::new(other, i % 25)),
                Value::RefSet((0..i % 3).map(|k| Oid::new(ty, k)).collect()),
            ]
        };
        let bases = columns(40, |i| row(base, i as u32));
        store.insert_columns(base, 40, bases, 100).unwrap();
        let deriveds = columns(25, |i| {
            let [n, tag, peer, set] = row(derived, i as u32 + 1);
            [n, tag, peer, set, Value::Int(i as i64)]
        });
        store.insert_columns(derived, 25, deriveds, 100).unwrap();
        let members = (0..60).map(|i| match i % 3 {
            0 => Oid::new(derived, i / 3),
            _ => Oid::new(base, i - i / 3 - 1),
        });
        let field = |col, field| Slot::Field { col, field };
        Mixed {
            store,
            members: members.collect(),
            slots: vec![
                field(0, n),
                field(0, tag),
                field(1, peer),
                field(1, set),
                // On `Derived` only: an unknown field on every `Base` row.
                field(0, extra),
                Slot::Oid(1),
                Slot::Const(&TWO),
            ],
            preds: vec![
                Pred { terms: vec![] },
                Pred {
                    terms: vec![(field(0, n), CmpOp::Ge, Slot::Const(&TWO))],
                },
                Pred {
                    terms: vec![
                        (field(1, tag), CmpOp::Ne, field(0, tag)),
                        (field(0, n), CmpOp::Le, field(1, n)),
                        (field(0, peer), CmpOp::Ne, Slot::Oid(1)),
                    ],
                },
            ],
            base,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Batches over a collection that mixes a type with its subtype,
        /// with at most one dangling oid somewhere in the middle: a
        /// sequence past the population, or a type the store never heard
        /// of.
        #[test]
        fn batch_forms_equal_row_at_a_time_over_mixed_types(
            picks in proptest::collection::vec((0usize..60, 0usize..60), 0..120),
            ghost in (0usize..4, 0usize..240),
        ) {
            let m = mixed();
            let mut data: Vec<Oid> =
                picks.iter().flat_map(|&(a, b)| [m.members[a], m.members[b]]).collect();
            let (kind, at) = ghost;
            if !data.is_empty() && kind > 0 {
                let at = at % data.len();
                data[at] = match kind {
                    1 => Oid::new(m.base, 40),
                    2 => Oid::new(m.base, u32::MAX >> 8),
                    _ => Oid::new(TypeId::from_index(9), 0),
                };
            }
            let batch = Batch { width: 2, data };
            // The `extra` slot errs on every `Base` row; both forms read a
            // slot's rows in order and report the first. The predicates
            // stay on fields both types have: with two bad rows, term by
            // term and row by row need not meet the same one first.
            assert_batch_forms_agree(&m.store, &batch, &m.slots, &m.preds);
        }

        /// Random (person-or-employee, department) batches over the paper
        /// database.
        #[test]
        fn batch_forms_equal_row_at_a_time_over_the_paper_database(
            picks in proptest::collection::vec((0usize..1000, 0usize..2, 0usize..1000), 0..200),
        ) {
            let (store, m) = generate_paper_db(GenConfig::small());
            let ids = &m.ids;
            let pick = |coll, i: usize| {
                let members = store.members(coll);
                members[i % members.len()]
            };
            let data = picks.iter().flat_map(|&(p, employee, d)| {
                let who = if employee == 1 { ids.employees } else { ids.person_extent };
                [pick(who, p), pick(ids.department_extent, d)]
            });
            let batch = Batch { width: 2, data: data.collect() };
            let field = |col, field| Slot::Field { col, field };
            let (joe, three) = (Value::str("Joe"), Value::Int(3));
            let slots = [
                field(0, ids.person_name),
                field(0, ids.person_age),
                // On employees only.
                field(0, ids.emp_dept),
                field(1, ids.dept_floor),
                field(1, ids.dept_plant),
                Slot::Oid(0),
            ];
            let preds = [
                Pred { terms: vec![(field(1, ids.dept_floor), CmpOp::Eq, Slot::Const(&three))] },
                Pred {
                    terms: vec![
                        (Slot::Const(&joe), CmpOp::Lt, field(0, ids.person_name)),
                        (field(0, ids.person_age), CmpOp::Gt, field(1, ids.dept_floor)),
                    ],
                },
            ];
            assert_batch_forms_agree(&store, &batch, &slots, &preds);
        }
    }
}
