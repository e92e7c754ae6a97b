//! Query simplification: the user algebra → the optimizer input algebra.
//!
//! "The Open OODB query processing model uses a query simplification stage
//! to transform ZQL[C++] parse trees into an equivalent algebraic operator
//! graph with simple arguments suitable as input to the Open OODB
//! optimizer."
//!
//! What happens here, per the paper:
//!
//! * every link of a single-valued path expression becomes a `Mat`
//!   operator (Figure 2); repeated sub-paths share one variable —
//!   common-subexpression factorization at the source level;
//! * set-valued paths (only reachable through EXISTS subqueries) become
//!   `Unnest` followed by a dereferencing `Mat` (Figure 3);
//! * multi-collection FROM clauses become joins, using the WHERE
//!   conjuncts that span them as join predicates;
//! * everything else lands in one `Select` whose conjunction the
//!   optimizer's select-split rule takes apart;
//! * a `Newobject(...)`/expression select list becomes a `Project`.
//!
//! "This translation ... is very straightforward because there is no need
//! for optimality and therefore for choices in this translation."

use crate::ast::{AstCmp, AstExpr, AstLit, AstQuery, AstSource};
use crate::ZqlError;
use oodb_algebra::{
    CmpOp, LogicalOp, LogicalPlan, Operand, Pred, QueryEnv, ScopeArena, Term, VarId, VarOrigin,
    VarSet,
};
use oodb_object::{Catalog, CollectionId, Date, FieldId, FieldKind, Schema, TypeId, Value};
use std::collections::HashMap;

/// The simplified query: optimizer-ready.
#[derive(Debug)]
pub struct SimplifiedQuery {
    /// Shared context (scopes, interned predicates).
    pub env: QueryEnv,
    /// The simple-argument logical algebra expression.
    pub plan: LogicalPlan,
    /// Result variables the plan must deliver in memory (empty when a
    /// projection constructs the result).
    pub result_vars: VarSet,
    /// Whether the root is a projection.
    pub projected: bool,
    /// Requested result order (ORDER BY), if any.
    pub order: Option<oodb_algebra::SortSpec>,
}

/// Simplifies a parsed query against a schema and catalog.
pub fn simplify(
    q: &AstQuery,
    schema: &Schema,
    catalog: &Catalog,
) -> Result<SimplifiedQuery, ZqlError> {
    let s = Simplifier {
        env: QueryEnv::new(schema.clone(), catalog.clone()),
        vars: HashMap::new(),
        mats: HashMap::new(),
        chain: Vec::new(),
    };
    s.run(q)
}

struct Simplifier {
    env: QueryEnv,
    /// Range-variable name → scope variable.
    vars: HashMap<String, VarId>,
    /// `(source var, optional field)` → materialized variable (CSE).
    mats: HashMap<(VarId, Option<FieldId>), VarId>,
    /// `Mat`/`Unnest` operators in creation (dependency) order.
    chain: Vec<LogicalOp>,
}

impl Simplifier {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ZqlError> {
        Err(ZqlError::new(msg, None))
    }

    /// Registers a scope variable; range variables and path links share
    /// the arena's capacity, and the one past it is refused.
    fn new_var(
        &mut self,
        name: &str,
        label: &str,
        ty: TypeId,
        origin: VarOrigin,
    ) -> Result<VarId, ZqlError> {
        let cap = ScopeArena::CAPACITY;
        if self.env.scopes.len() == cap {
            return self.err(format!("the query needs more than {cap} scope variables"));
        }
        Ok(self.env.scopes.add_labeled(name, label, ty, origin))
    }

    fn run(mut self, q: &AstQuery) -> Result<SimplifiedQuery, ZqlError> {
        // FROM bindings: top level must scan collections/extents.
        let mut gets: Vec<(CollectionId, VarId)> = Vec::new();
        for b in &q.from {
            let AstSource::Collection(name) = &b.source else {
                return self.err(
                    "a set-valued path can only range an EXISTS subquery, \
                     not a top-level FROM",
                );
            };
            let coll = self.resolve_collection(name)?;
            let elem = self.env.catalog.collection(coll).elem_type;
            if let Some(tyname) = &b.ty {
                let declared = self
                    .env
                    .schema
                    .type_by_name(tyname)
                    .ok_or_else(|| ZqlError::new(format!("unknown type {tyname:?}"), None))?;
                if !self.env.schema.is_subtype(elem, declared) {
                    return self.err(format!(
                        "collection {name:?} holds {:?}, not {tyname:?}",
                        self.env.schema.ty(elem).name
                    ));
                }
            }
            if self.vars.contains_key(&b.var) {
                return self.err(format!("duplicate range variable {:?}", b.var));
            }
            let v = self.new_var(&b.var, &b.var, elem, VarOrigin::Get(coll))?;
            self.vars.insert(b.var.clone(), v);
            gets.push((coll, v));
        }

        // WHERE: flatten conjuncts (EXISTS expands in place).
        let mut terms: Vec<Term> = Vec::new();
        if let Some(w) = &q.where_ {
            self.conjuncts_into(w, &mut terms)?;
        }

        // SELECT: bare variables or a projection list.
        let mut result_vars = VarSet::EMPTY;
        let mut items: Vec<Operand> = Vec::new();
        let mut all_bare = !q.new_object;
        for item in &q.select {
            match item {
                AstExpr::Path { base, steps } if steps.is_empty() && !q.new_object => {
                    let v = self.lookup_var(base)?;
                    result_vars = result_vars.insert(v);
                    items.push(Operand::VarOid(v));
                }
                other => {
                    all_bare = false;
                    items.push(self.operand(other)?);
                }
            }
        }

        // Build the join tree over the Gets.
        let mut used = vec![false; terms.len()];
        let (first_coll, first_var) = gets[0];
        let mut plan = LogicalPlan::leaf(LogicalOp::Get {
            coll: first_coll,
            var: first_var,
        });
        let mut in_tree = VarSet::single(first_var);
        for &(coll, v) in &gets[1..] {
            let next = LogicalPlan::leaf(LogicalOp::Get { coll, var: v });
            let candidate_vars = in_tree.insert(v);
            let mut join_term: Option<usize> = None;
            for (i, t) in terms.iter().enumerate() {
                if used[i] || t.op != CmpOp::Eq {
                    continue;
                }
                let tv = term_vars(t);
                if tv.contains(v) && tv.is_subset(candidate_vars) && tv.len() >= 2 {
                    join_term = Some(i);
                    break;
                }
            }
            let Some(i) = join_term else {
                return self.err(format!(
                    "no join condition connects range variable {:?}; \
                     cross products are not supported",
                    self.env.scopes.var(v).name
                ));
            };
            used[i] = true;
            let pred = self.env.preds.intern(Pred::term(terms[i].clone()));
            plan = LogicalPlan::binary(LogicalOp::Join { pred }, plan, next);
            in_tree = candidate_vars;
        }

        // Materializations and unnests, in dependency order.
        for op in std::mem::take(&mut self.chain) {
            plan = LogicalPlan::unary(op, plan);
        }

        // Residual selection.
        let residual: Vec<Term> = terms
            .into_iter()
            .zip(used)
            .filter(|(_, u)| !u)
            .map(|(t, _)| t)
            .collect();
        if !residual.is_empty() {
            let pred = self.env.preds.intern(Pred { terms: residual });
            plan = LogicalPlan::unary(LogicalOp::Select { pred }, plan);
        }

        // ORDER BY: resolve the path to (variable, attribute),
        // materializing links on the way; the Mat ops join the chain
        // below, before the plan is assembled.
        let order = match &q.order_by {
            None => None,
            Some((base, steps)) => {
                let op = self.operand(&AstExpr::Path {
                    base: base.clone(),
                    steps: steps.clone(),
                })?;
                let Operand::Attr { var, field } = op else {
                    return self.err("ORDER BY must end in an attribute");
                };
                Some(oodb_algebra::SortSpec { var, field })
            }
        };

        // ORDER BY may have materialized new components after the chain
        // was drained above; append them.
        for op in std::mem::take(&mut self.chain) {
            plan = LogicalPlan::unary(op, plan);
        }

        // Projection.
        let projected = !all_bare;
        if projected {
            plan = LogicalPlan::unary(LogicalOp::Project { items }, plan);
            result_vars = VarSet::EMPTY;
        }

        Ok(SimplifiedQuery {
            env: self.env,
            plan,
            result_vars,
            projected,
            order,
        })
    }

    fn resolve_collection(&self, name: &str) -> Result<CollectionId, ZqlError> {
        if let Some(c) = self.env.catalog.collection_by_name(name) {
            return Ok(c);
        }
        // Querying a type extent by type name ("queries on type extents").
        if let Some(ty) = self.env.schema.type_by_name(name) {
            if let Some(c) = self.env.catalog.extent_of(ty) {
                return Ok(c);
            }
            return Err(ZqlError::new(
                format!("type {name:?} has no extent to scan"),
                None,
            ));
        }
        Err(ZqlError::new(format!("unknown collection {name:?}"), None))
    }

    fn lookup_var(&self, name: &str) -> Result<VarId, ZqlError> {
        self.vars
            .get(name)
            .copied()
            .ok_or_else(|| ZqlError::new(format!("unknown range variable {name:?}"), None))
    }

    /// Gets or creates the `Mat` variable for `src.field` (or the
    /// dereference of `src` when `field` is `None`).
    fn mat_var(&mut self, src: VarId, field: Option<FieldId>) -> Result<VarId, ZqlError> {
        if let Some(&v) = self.mats.get(&(src, field)) {
            return Ok(v);
        }
        let (name, ty) = match field {
            Some(f) => {
                let fd = self.env.schema.field(f);
                (
                    format!("{}.{}", self.env.scopes.var(src).name, fd.name),
                    fd.kind.target().expect("mat over reference"),
                )
            }
            None => {
                let sv = self.env.scopes.var(src);
                (
                    format!(
                        "{}.{}",
                        sv.name,
                        self.env.schema.ty(sv.ty).name.to_lowercase()
                    ),
                    sv.ty,
                )
            }
        };
        let v = self.new_var(&name, &name, ty, VarOrigin::Mat { src, field })?;
        self.mats.insert((src, field), v);
        self.chain.push(LogicalOp::Mat { out: v });
        Ok(v)
    }

    /// Ensures a variable denotes objects (dereferencing Unnest outputs).
    fn deref_if_needed(&mut self, v: VarId) -> Result<VarId, ZqlError> {
        if self.env.scopes.var(v).is_ref() {
            self.mat_var(v, None)
        } else {
            Ok(v)
        }
    }

    fn conjuncts_into(&mut self, e: &AstExpr, out: &mut Vec<Term>) -> Result<(), ZqlError> {
        match e {
            AstExpr::And(a, b) => {
                self.conjuncts_into(a, out)?;
                self.conjuncts_into(b, out)
            }
            AstExpr::Cmp { left, op, right } => {
                let l = self.operand(left)?;
                let r = self.operand(right)?;
                self.check_comparable(&l, &r)?;
                out.push(Term {
                    left: l,
                    op: cmp_op(*op),
                    right: r,
                });
                Ok(())
            }
            AstExpr::Exists(sub) => self.expand_exists(sub, out),
            AstExpr::Path { .. } | AstExpr::Lit(_) => self.err(
                "bare boolean expressions are not supported; \
                 write an explicit comparison",
            ),
        }
    }

    /// EXISTS (SELECT ... FROM v IN path WHERE ...) — unnested in place:
    /// the set-valued path becomes `Unnest`, attribute access on the new
    /// variable goes through a dereferencing `Mat`, and the inner
    /// condition joins the outer conjunction (Figure 3 / Query 4).
    fn expand_exists(&mut self, sub: &AstQuery, out: &mut Vec<Term>) -> Result<(), ZqlError> {
        for b in &sub.from {
            let AstSource::Path { base, steps } = &b.source else {
                return self.err(
                    "EXISTS subqueries must range over a set-valued path \
                     of an outer variable",
                );
            };
            let (cur, f, last) = self.walk_path(base, steps)?;
            let FieldKind::RefSet(target) = self.env.schema.field(f).kind else {
                return self.err(format!(
                    "EXISTS must range over a set-valued field; {last:?} is not"
                ));
            };
            if self.vars.contains_key(&b.var) {
                return self.err(format!("duplicate range variable {:?}", b.var));
            }
            let label = format!("{}.{}", self.env.scopes.var(cur).name, last);
            let v = self.new_var(
                &b.var,
                &label,
                target,
                VarOrigin::Unnest { src: cur, field: f },
            )?;
            self.vars.insert(b.var.clone(), v);
            self.chain.push(LogicalOp::Unnest { out: v });
        }
        if let Some(w) = &sub.where_ {
            self.conjuncts_into(w, out)?;
        }
        Ok(())
    }

    /// The one path walk: from range variable `base`, every step but the
    /// last must be a single-valued reference and becomes a `Mat` (shared
    /// with any earlier walk of the same link). Returns the variable the
    /// last step is read on, that step's field and its name.
    fn walk_path<'s>(
        &mut self,
        base: &str,
        steps: &'s [String],
    ) -> Result<(VarId, FieldId, &'s str), ZqlError> {
        let mut cur = self.lookup_var(base)?;
        let Some((last, links)) = steps.split_last() else {
            return self.err(format!("path {base:?} has no steps"));
        };
        for step in links {
            cur = self.deref_if_needed(cur)?;
            let f = self.field_on(cur, step)?;
            match self.env.schema.field(f).kind {
                FieldKind::Ref(_) => cur = self.mat_var(cur, Some(f))?,
                _ => {
                    return self.err(format!(
                        "path step {step:?} must be a single-valued reference; \
                         a set-valued path needs EXISTS"
                    ))
                }
            }
        }
        cur = self.deref_if_needed(cur)?;
        Ok((cur, self.field_on(cur, last)?, last))
    }

    fn field_on(&self, var: VarId, name: &str) -> Result<FieldId, ZqlError> {
        let ty = self.env.scopes.var(var).ty;
        self.env.schema.field_by_name(ty, name).ok_or_else(|| {
            ZqlError::new(
                format!(
                    "type {:?} has no field {name:?}",
                    self.env.schema.ty(ty).name
                ),
                None,
            )
        })
    }

    /// Translates an expression into a simple operand, materializing path
    /// links along the way.
    fn operand(&mut self, e: &AstExpr) -> Result<Operand, ZqlError> {
        match e {
            AstExpr::Lit(l) => Ok(Operand::Const(lit_value(l))),
            AstExpr::Path { base, steps } => {
                if steps.is_empty() {
                    let v = self.lookup_var(base)?;
                    return Ok(if self.env.scopes.var(v).is_ref() {
                        Operand::VarRef(v)
                    } else {
                        Operand::VarOid(v)
                    });
                }
                let (cur, f, last) = self.walk_path(base, steps)?;
                match self.env.schema.field(f).kind {
                    FieldKind::Attr(_) => Ok(Operand::Attr { var: cur, field: f }),
                    FieldKind::Ref(_) => Ok(Operand::RefField { var: cur, field: f }),
                    FieldKind::RefSet(_) => self.err(format!(
                        "set-valued field {last:?} cannot be compared; use EXISTS"
                    )),
                }
            }
            AstExpr::Cmp { .. } | AstExpr::And(..) | AstExpr::Exists(_) => {
                self.err("nested boolean expressions cannot be operands")
            }
        }
    }

    /// Light type checking of a comparison.
    fn check_comparable(&self, l: &Operand, r: &Operand) -> Result<(), ZqlError> {
        use oodb_object::AttrType;
        let kind = |o: &Operand| -> Option<AttrType> {
            match o {
                Operand::Attr { field, .. } => match self.env.schema.field(*field).kind {
                    FieldKind::Attr(a) => Some(a),
                    _ => None,
                },
                Operand::Const(v) => match v {
                    Value::Int(_) => Some(AttrType::Int),
                    Value::Float(_) => Some(AttrType::Float),
                    Value::Str(_) => Some(AttrType::Str),
                    Value::Bool(_) => Some(AttrType::Bool),
                    Value::Date(_) => Some(AttrType::Date),
                    _ => None,
                },
                _ => None, // object-valued: identity comparison
            }
        };
        let obj = |o: &Operand| {
            matches!(
                o,
                Operand::VarOid(_) | Operand::VarRef(_) | Operand::RefField { .. }
            )
        };
        match (kind(l), kind(r)) {
            (Some(a), Some(b)) => {
                let numeric = |t: AttrType| matches!(t, AttrType::Int | AttrType::Float);
                if a == b || (numeric(a) && numeric(b)) {
                    Ok(())
                } else {
                    self.err(format!("incomparable attribute types {a:?} and {b:?}"))
                }
            }
            (None, None) if obj(l) && obj(r) => Ok(()),
            _ => self.err("cannot compare an object with a value"),
        }
    }
}

fn cmp_op(op: AstCmp) -> CmpOp {
    match op {
        AstCmp::Eq => CmpOp::Eq,
        AstCmp::Ne => CmpOp::Ne,
        AstCmp::Lt => CmpOp::Lt,
        AstCmp::Le => CmpOp::Le,
        AstCmp::Gt => CmpOp::Gt,
        AstCmp::Ge => CmpOp::Ge,
    }
}

fn lit_value(l: &AstLit) -> Value {
    match l {
        AstLit::Int(i) => Value::Int(*i),
        AstLit::Float(f) => Value::Float(*f),
        AstLit::Str(s) => Value::str(s),
        AstLit::Bool(b) => Value::Bool(*b),
        AstLit::Date(y, m, d) => Value::Date(Date::from_ymd(*y, *m, *d)),
    }
}

fn term_vars(t: &Term) -> VarSet {
    VarSet::from_iter([t.left.var(), t.right.var()].into_iter().flatten())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use oodb_algebra::display::render_logical;
    use oodb_object::paper::paper_model;

    fn compile(src: &str) -> Result<SimplifiedQuery, ZqlError> {
        let m = paper_model();
        simplify(&parse(src)?, &m.schema, &m.catalog)
    }

    /// Range variables and path links share the arena's 64 slots; the
    /// one past them is a typed error, not the arena's overflow.
    #[test]
    fn the_65th_scope_variable_is_a_typed_error() {
        let query = |bindings: usize, path: &str| {
            let from: Vec<String> = (0..bindings)
                .map(|i| format!("City c{i} IN Cities"))
                .collect();
            format!(
                r#"SELECT c0 FROM {} WHERE c0.{path} == "x""#,
                from.join(", ")
            )
        };
        let over = |src: String| {
            compile(&src)
                .err()
                .is_some_and(|e| e.msg.contains("more than 64 scope variables"))
        };
        assert!(!over(query(64, "name()")));
        assert!(over(query(65, "name()")));
        assert!(over(query(64, "mayor().name()")), "a Mat link counts too");
    }

    #[test]
    fn query2_simplifies_to_figure8() {
        let q =
            compile(r#"SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe""#).unwrap();
        let text = render_logical(&q.env, &q.plan);
        assert_eq!(
            text,
            "Select c.mayor.name == \"Joe\"\n|\nMat c.mayor\n|\nGet Cities: c\n"
        );
        assert!(!q.projected);
        assert_eq!(q.result_vars.len(), 1);
    }

    #[test]
    fn query1_simplifies_to_figure5_shape() {
        let q = compile(
            r#"SELECT Newobject(e.name(), e.job().name(), e.dept().name())
               FROM Employee e IN Employees
               WHERE e.dept().plant().location() == "Dallas""#,
        )
        .unwrap();
        let text = render_logical(&q.env, &q.plan);
        assert!(
            text.contains("Project e.name, e.job.name, e.dept.name"),
            "{text}"
        );
        assert!(
            text.contains("Select e.dept.plant.location == \"Dallas\""),
            "{text}"
        );
        assert!(text.contains("Mat e.dept.plant"), "{text}");
        assert!(text.contains("Mat e.dept\n"), "{text}");
        assert!(text.contains("Mat e.job"), "{text}");
        assert!(text.contains("Get Employees: e"), "{text}");
        assert!(q.projected);
    }

    #[test]
    fn common_path_prefix_is_shared() {
        // e.dept().name() and e.dept().floor() must share one Mat.
        let q = compile(
            r#"SELECT e FROM Employee e IN Employees
               WHERE e.dept().floor() == 3 && e.dept().name() == "toys""#,
        )
        .unwrap();
        let mats = q
            .plan
            .iter_ops()
            .into_iter()
            .filter(|op| matches!(op, LogicalOp::Mat { .. }))
            .count();
        assert_eq!(mats, 1, "shared prefix must materialize once");
    }

    #[test]
    fn multi_from_becomes_join() {
        let q = compile(
            r#"SELECT Newobject(e.name(), d.name())
               FROM Employee e IN Employees, Department d IN Department
               WHERE d.floor() == 3 && e.age() >= 32 && e.dept() == d"#,
        )
        .unwrap();
        let text = render_logical(&q.env, &q.plan);
        assert!(text.contains("Join e.dept == d.self"), "{text}");
        assert!(text.contains("Get Employees: e"), "{text}");
        assert!(text.contains("Get extent(Department): d"), "{text}");
        // Join condition consumed; the two attribute conditions remain.
        assert!(
            text.contains("Select d.floor == 3 and e.age >= 32"),
            "{text}"
        );
    }

    #[test]
    fn exists_subquery_unnests_like_figure3() {
        let q = compile(
            r#"SELECT t FROM Task t IN Tasks
               WHERE t.time() == 100
                 && EXISTS (SELECT m FROM m IN t.team_members()
                            WHERE m.name() == "Fred")"#,
        )
        .unwrap();
        let text = render_logical(&q.env, &q.plan);
        assert!(text.contains("Unnest t.team_members: m"), "{text}");
        assert!(text.contains("Mat m.employee"), "{text}");
        assert!(text.contains("Get Tasks: t"), "{text}");
        assert!(
            text.contains("Select t.time == 100 and m.employee.name == \"Fred\""),
            "{text}"
        );
    }

    #[test]
    fn date_adt_comparison() {
        let q = compile(
            r#"SELECT e FROM Employee e IN Employees
               WHERE e.last_raise() >= Date(1992, 1, 1)"#,
        )
        .unwrap();
        let text = render_logical(&q.env, &q.plan);
        assert!(text.contains("Select e.last_raise >= 1992-01-01"), "{text}");
    }

    #[test]
    fn error_cases() {
        // Unknown collection.
        assert!(compile("SELECT x FROM x IN Nowhere").is_err());
        // Unknown field.
        assert!(compile("SELECT c FROM c IN Cities WHERE c.nonexistent() == 1").is_err());
        // Type mismatch: string attribute vs integer.
        assert!(compile(r#"SELECT c FROM c IN Cities WHERE c.name() == 1"#).is_err());
        // Object vs value.
        assert!(compile(r#"SELECT c FROM c IN Cities WHERE c.mayor() == 1"#).is_err());
        // Set-valued path outside EXISTS.
        assert!(
            compile(r#"SELECT t FROM t IN Tasks WHERE t.team_members().name() == "x""#).is_err()
        );
        // Cross product.
        assert!(compile("SELECT c FROM c IN Cities, t IN Tasks WHERE t.time() == 1").is_err());
        // Declared type mismatch.
        assert!(compile("SELECT c FROM Task c IN Cities").is_err());
    }

    #[test]
    fn order_by_resolves_to_sort_spec() {
        let m = paper_model();
        // Ordering through a path materializes the link.
        let q = compile("SELECT c FROM City c IN Cities ORDER BY c.mayor().age()").unwrap();
        let spec = q.order.expect("order resolved");
        assert_eq!(m.ids.person_age, spec.field);
        assert!(
            q.plan
                .iter_ops()
                .iter()
                .any(|op| matches!(op, LogicalOp::Mat { .. })),
            "mayor link must be materialized for the ordering attribute"
        );
        // Ordering by a reference field is an error.
        assert!(compile("SELECT c FROM c IN Cities ORDER BY c.mayor()").is_err());
    }

    #[test]
    fn extent_scan_by_type_name() {
        let q = compile("SELECT j FROM j IN Job WHERE j.pay_grade() >= 10").unwrap();
        let text = render_logical(&q.env, &q.plan);
        assert!(text.contains("Get extent(Job): j"), "{text}");
    }
}
