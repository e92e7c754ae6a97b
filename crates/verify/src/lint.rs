//! The plan linter: a typed walk of logical and physical operator trees
//! checking shape, variable scoping and binding, and `Mat`-chain types.
//! A logical operator and the physical operators implementing it share
//! one `lint_*` arm.

use crate::{checks, Cx};
use oodb_algebra::{
    LogicalOp, LogicalPlan, Operand, PhysicalOp, PhysicalPlan, PredId, VarId, VarOrigin, VarSet,
};
use oodb_object::{CollectionId, FieldId, FieldKind, IndexId, TypeId};

impl Cx<'_> {
    /// Walks a logical expression, emitting diagnostics and returning the
    /// variables the expression binds in its output.
    pub(crate) fn walk_logical(&mut self, plan: &LogicalPlan) -> VarSet {
        // A set operation is named by its kind, not its tag.
        let op = match &plan.op {
            LogicalOp::SetOp { kind } => kind.name(),
            other => other.tag(),
        };
        let kids = self.lint_kids(op, plan.op.arity(), &plan.children, Self::walk_logical);
        let inherit = union(&kids);
        match &plan.op {
            LogicalOp::Get { coll, var } => self.lint_scan(*coll, *var, op),
            LogicalOp::Select { pred } => self.lint_select(*pred, inherit, op),
            LogicalOp::Project { items } => self.lint_project(items, inherit, op),
            LogicalOp::Join { pred } => self.lint_join(*pred, &kids, op),
            LogicalOp::Mat { out } => self.lint_intro(*out, false, inherit, op),
            LogicalOp::Unnest { out } => self.lint_intro(*out, true, inherit, op),
            LogicalOp::SetOp { .. } => self.lint_setop(&kids, op),
        }
    }

    /// Walks a physical plan, emitting shape/scope/type diagnostics and
    /// returning the variables bound in the output tuples.
    pub(crate) fn walk_physical(&mut self, plan: &PhysicalPlan) -> VarSet {
        let op = plan.op.name();
        // Pointer join elides its scan side: the emitted plan carries one
        // child even though the algebra declares two.
        let arity = match plan.op {
            PhysicalOp::PointerJoin { .. } => 1,
            _ => plan.op.arity(),
        };
        let kids = self.lint_kids(op, arity, &plan.children, Self::walk_physical);
        let inherit = union(&kids);
        match &plan.op {
            PhysicalOp::FileScan { coll, var } => self.lint_scan(*coll, *var, op),
            PhysicalOp::IndexScan { index, var, pred } => {
                self.lint_index_scan(*index, *var, *pred, op)
            }
            PhysicalOp::Filter { pred } => self.lint_select(*pred, inherit, op),
            PhysicalOp::HybridHashJoin { pred } => {
                let out = self.lint_join(*pred, &kids, op);
                self.check_build_side(*pred, &kids, op);
                out
            }
            PhysicalOp::MergeJoin { pred } => {
                let out = self.lint_join(*pred, &kids, op);
                self.check_merge_pred(*pred, op);
                out
            }
            PhysicalOp::PointerJoin { pred } => self.lint_pointer_join(*pred, inherit, op),
            PhysicalOp::Assembly { targets, window } => {
                if *window == 0 {
                    self.emit(
                        checks::ZERO_WINDOW,
                        op,
                        "a window of at least one open reference",
                        "0".to_string(),
                    );
                }
                targets.iter().fold(inherit, |produced, &t| {
                    self.lint_intro(t, false, produced, op)
                })
            }
            PhysicalOp::WarmAssembly { target } => self.lint_intro(*target, false, inherit, op),
            PhysicalOp::AlgProject { items } => self.lint_project(items, inherit, op),
            PhysicalOp::AlgUnnest { out } => self.lint_intro(*out, true, inherit, op),
            PhysicalOp::HashSetOp { .. } => self.lint_setop(&kids, op),
            PhysicalOp::Sort { key } => {
                if self.check_var(key.var, "an in-scope sort variable", op)
                    && !inherit.contains(key.var)
                {
                    self.emit(
                        checks::UNBOUND_VAR,
                        op,
                        format!("sort variable {} produced upstream", self.var_name(key.var)),
                        format!("input binds only {}", self.vars_string(inherit)),
                    );
                }
                inherit
            }
        }
    }

    /// Checks the child count against `arity`, then lints each child.
    fn lint_kids<P>(
        &mut self,
        op: &str,
        arity: usize,
        children: &[P],
        walk: fn(&mut Self, &P) -> VarSet,
    ) -> Vec<VarSet> {
        if arity != children.len() {
            self.emit(
                checks::ARITY,
                op,
                format!("{arity} input(s)"),
                format!("{}", children.len()),
            );
        }
        self.walk_kids(children, walk)
    }

    // ------------------------------------------------------------------
    // Arms shared by the logical and the physical walk
    // ------------------------------------------------------------------

    /// `Get` / File Scan: binds `var`, which must range over `coll`.
    fn lint_scan(&mut self, coll: CollectionId, var: VarId, op: &str) -> VarSet {
        if !self.check_var(var, "an in-scope variable", op) {
            return VarSet::EMPTY;
        }
        if !self.coll_ok(coll) {
            self.emit(
                checks::DANGLING_COLLECTION,
                op,
                "a catalog collection id",
                format!("CollectionId({}) out of range", coll.index()),
            );
            return VarSet::single(var);
        }
        self.check_scan_domain(var, coll, op);
        VarSet::single(var)
    }

    /// `Select` / Filter: the predicate reads only bound variables.
    fn lint_select(&mut self, pred: PredId, inherit: VarSet, op: &str) -> VarSet {
        self.check_pred_scope(pred, inherit, op);
        inherit
    }

    /// `Project` / Alg-Project: every item reads a bound variable.
    fn lint_project(&mut self, items: &[Operand], inherit: VarSet, op: &str) -> VarSet {
        for v in items.iter().filter_map(Operand::var) {
            self.check_bound(v, inherit, "projected variable", op);
        }
        inherit
    }

    /// `Join` / Hybrid Hash Join / Merge Join: disjoint inputs, and a
    /// predicate over what they bind.
    fn lint_join(&mut self, pred: PredId, kids: &[VarSet], op: &str) -> VarSet {
        if let [l, r] = kids {
            let both = l.intersect(*r);
            if !both.is_empty() {
                self.emit(
                    checks::DUPLICATE_BINDING,
                    op,
                    "disjoint input scopes",
                    format!("both sides bind {}", self.vars_string(both)),
                );
            }
        }
        let inherit = union(kids);
        self.check_pred_scope(pred, inherit, op);
        inherit
    }

    /// `Mat` / (Warm) Assembly (`unnest == false`) and `Unnest` /
    /// Alg-Unnest (`unnest == true`): `out` is introduced exactly once,
    /// by an origin of the operator's kind.
    fn lint_intro(&mut self, out: VarId, unnest: bool, produced: VarSet, op: &str) -> VarSet {
        self.check_intro(out, produced, op);
        self.check_origin(out, unnest, produced, op);
        produced.insert(out)
    }

    /// Set operations / Hash Set Op: both inputs bind the same variables.
    fn lint_setop(&mut self, kids: &[VarSet], op: &str) -> VarSet {
        if let [l, r] = kids {
            if l != r {
                self.emit(
                    checks::SETOP_MISMATCH,
                    op,
                    format!("both inputs binding {}", self.vars_string(*l)),
                    self.vars_string(*r),
                );
            }
        }
        kids.first().copied().unwrap_or(VarSet::EMPTY)
    }

    // ------------------------------------------------------------------
    // Physical-only arms
    // ------------------------------------------------------------------

    fn lint_index_scan(&mut self, index: IndexId, var: VarId, pred: PredId, op: &str) -> VarSet {
        if !self.check_var(var, "an in-scope variable", op) {
            return VarSet::EMPTY;
        }
        if !self.index_ok(index) {
            self.emit(
                checks::DANGLING_INDEX,
                op,
                "a catalog index id",
                format!("IndexId({}) out of range", index.index()),
            );
            return VarSet::single(var);
        }
        self.check_scan_domain(var, self.env.catalog.index(index).collection, op);
        // The scan answers its predicate through the index; the predicate
        // may mention path-chain variables (never materialized), but each
        // must chain back to the base. The base itself is always fair game:
        // the scan binds it directly, whatever its origin — a Mat→Join
        // `Get` scans the reference's domain under the Mat-origin variable.
        if self.check_pred(pred, op) {
            for v in self.env.preds.vars_used(pred) {
                if v != var && self.chain_root(v) != var {
                    self.emit(
                        checks::UNBOUND_VAR,
                        op,
                        format!(
                            "predicate variable {} reachable from scan base {}",
                            self.var_name(v),
                            self.var_name(var)
                        ),
                        format!("chains to {}", self.var_name(self.chain_root(v))),
                    );
                }
            }
        }
        VarSet::single(var)
    }

    fn lint_pointer_join(&mut self, pred: PredId, inherit: VarSet, op: &str) -> VarSet {
        if !self.check_pred(pred, op) {
            return inherit;
        }
        let Some(target) = self.ref_eq_target(pred) else {
            self.emit(
                checks::POINTER_JOIN_PRED,
                op,
                "a reference-equality predicate",
                format!(
                    "{} term(s), none a reference equality",
                    self.env.preds.pred(pred).terms.len()
                ),
            );
            return inherit;
        };
        self.check_intro(target, inherit, op);
        // The reference side's variables must come from the surviving
        // (left) input.
        for v in self.env.preds.vars_used(pred) {
            if v != target && !inherit.contains(v) {
                self.emit(
                    checks::UNBOUND_VAR,
                    op,
                    format!("reference variable {} produced upstream", self.var_name(v)),
                    format!("input binds only {}", self.vars_string(inherit)),
                );
            }
        }
        inherit.insert(target)
    }

    /// Hybrid hash join is directional: reference equalities resolve
    /// against the build (left) side's OIDs.
    fn check_build_side(&mut self, pred: PredId, kids: &[VarSet], op: &str) {
        let [l, r] = kids else {
            return;
        };
        if !self.pred_ok(pred) {
            return;
        }
        for t in &self.env.preds.pred(pred).terms {
            if let Some((_, target)) = t.as_ref_eq() {
                if !l.contains(target) && r.contains(target) {
                    self.emit(
                        checks::HASH_BUILD_SIDE,
                        op,
                        format!(
                            "reference-equality target {} on the left (build) input",
                            self.var_name(target)
                        ),
                        "bound by the right (probe) input".to_string(),
                    );
                }
            }
        }
    }

    /// Merge join needs a leading attribute equality to merge on.
    fn check_merge_pred(&mut self, pred: PredId, op: &str) {
        if !self.pred_ok(pred) {
            return;
        }
        let is_attr_eq = matches!(
            self.env.preds.pred(pred).terms.first(),
            Some(t) if t.op == oodb_algebra::CmpOp::Eq
                && matches!(t.left, Operand::Attr { .. })
                && matches!(t.right, Operand::Attr { .. })
        );
        if !is_attr_eq {
            self.emit(
                checks::MERGE_JOIN_PRED,
                op,
                "a leading attribute-equality term",
                "no Attr == Attr leading term".to_string(),
            );
        }
    }

    // ------------------------------------------------------------------
    // Scope and type checks
    // ------------------------------------------------------------------

    /// Whether `v` resolves in the scope arena; [`checks::DANGLING_VAR`]
    /// when it does not.
    fn check_var(&mut self, v: VarId, expected: &str, op: &str) -> bool {
        let ok = self.var_ok(v);
        if !ok {
            self.emit(
                checks::DANGLING_VAR,
                op,
                expected,
                format!("v{} out of range", v.index()),
            );
        }
        ok
    }

    /// Whether `pred` resolves in the predicate arena;
    /// [`checks::DANGLING_PRED`] when it does not.
    fn check_pred(&mut self, pred: PredId, op: &str) -> bool {
        let ok = self.pred_ok(pred);
        if !ok {
            self.emit(
                checks::DANGLING_PRED,
                op,
                "an interned predicate id",
                format!("PredId({}) out of range", pred.index()),
            );
        }
        ok
    }

    /// A variable an operator reads (`what` it is to the operator) must
    /// resolve and be bound upstream.
    fn check_bound(&mut self, v: VarId, produced: VarSet, what: &str, op: &str) {
        if self.check_var(v, "an in-scope variable id", op) && !produced.contains(v) {
            self.emit(
                checks::UNBOUND_VAR,
                op,
                format!("{what} {} produced upstream", self.var_name(v)),
                format!("inputs bind only {}", self.vars_string(produced)),
            );
        }
    }

    /// Checks that every variable a predicate mentions is bound upstream.
    fn check_pred_scope(&mut self, pred: PredId, produced: VarSet, op: &str) {
        if self.check_pred(pred, op) {
            for v in self.env.preds.vars_used(pred) {
                self.check_bound(v, produced, "predicate variable", op);
            }
        }
    }

    /// Rebinding guard: an operator may not introduce a variable its input
    /// already binds.
    fn check_intro(&mut self, out: VarId, produced: VarSet, op: &str) {
        if produced.contains(out) {
            self.emit(
                checks::DUPLICATE_BINDING,
                op,
                format!("{} introduced exactly once", self.var_name(out)),
                "already bound by an input".to_string(),
            );
        }
    }

    /// A scan of `coll` may bind `v` iff `coll` is the collection bounding
    /// the population `v` ranges over — its `Get` collection, or (for the
    /// Mat→Join rewrite, which scans a component's extent) the reference
    /// field's declared domain / the target type's extent.
    fn check_scan_domain(&mut self, v: VarId, coll: CollectionId, op: &str) {
        if self.env.var_domain(v) != Some(coll) {
            self.emit(
                checks::ORIGIN_MISMATCH,
                op,
                format!(
                    "{} ranging over scanned collection {}",
                    self.var_name(v),
                    self.env.catalog.collection(coll).name
                ),
                format!(
                    "domain is {}",
                    match self.env.var_domain(v) {
                        Some(c) => self.env.catalog.collection(c).name.clone(),
                        None => "unknown".to_string(),
                    }
                ),
            );
        }
    }

    /// The origin check of a `Mat` (`unnest == false`) or `Unnest` output:
    /// `out` must have an origin of that kind whose source is bound
    /// upstream and whose link field is declared on the source's type — a
    /// single-valued reference for `Mat`, a set of references for
    /// `Unnest` — with a target type and catalog extent that agree with
    /// `out`'s declared type. A `Mat` without a field dereferences a
    /// reference-valued source.
    fn check_origin(&mut self, out: VarId, unnest: bool, produced: VarSet, op: &str) {
        if !self.check_var(out, "an in-scope output variable", op) {
            return;
        }
        let (kind, origin) = if unnest {
            ("Unnest", "an Unnest origin")
        } else {
            ("Mat", "a Mat origin")
        };
        let sv = self.env.scopes.var(out);
        let (src, field) = match sv.origin {
            VarOrigin::Mat { src, field } if !unnest => (src, field),
            VarOrigin::Unnest { src, field } if unnest => (src, Some(field)),
            _ => {
                self.emit(
                    checks::ORIGIN_MISMATCH,
                    op,
                    format!("{} bound by {origin}", self.var_name(out)),
                    format!("{:?}", sv.origin),
                );
                return;
            }
        };
        let out_ty = sv.ty;
        if !self.check_var(src, &format!("a valid {kind} source variable"), op) {
            return;
        }
        if !produced.contains(src) {
            self.emit(
                checks::UNBOUND_VAR,
                op,
                format!("{kind} source {} produced upstream", self.var_name(src)),
                format!("inputs bind only {}", self.vars_string(produced)),
            );
        }
        match field {
            Some(f) => self.check_link_field(op, src, f, out_ty, unnest),
            // Dereference of a reference-valued variable (the form a
            // preceding Unnest produces).
            None if !self.env.scopes.var(src).is_ref() => self.emit(
                checks::DEREF_OF_NON_REF,
                op,
                format!(
                    "dereference source {} to hold a reference (Unnest origin)",
                    self.var_name(src)
                ),
                format!("{:?}", self.env.scopes.var(src).origin),
            ),
            None => {}
        }
    }

    /// Shared link-field validation for `Mat` (`set_valued == false`) and
    /// `Unnest` (`set_valued == true`).
    fn check_link_field(
        &mut self,
        op: &str,
        src: VarId,
        f: FieldId,
        out_ty: TypeId,
        set_valued: bool,
    ) {
        let fd = self.env.schema.field(f);
        let src_ty = self.env.scopes.var(src).ty;
        if !self.env.schema.is_subtype(src_ty, fd.owner) {
            self.emit(
                checks::FIELD_NOT_ON_SOURCE,
                op,
                format!(
                    "link field {} declared on {}'s type {}",
                    fd.name,
                    self.var_name(src),
                    self.ty_name(src_ty)
                ),
                format!("field owner is {}", self.ty_name(fd.owner)),
            );
        }
        let target = match (fd.kind, set_valued) {
            (FieldKind::Attr(a), _) => {
                let check = if set_valued {
                    checks::UNNEST_OF_NON_SET
                } else {
                    checks::MAT_OF_ATTRIBUTE
                };
                self.emit(
                    check,
                    op,
                    format!("{} to be a reference field", fd.name),
                    format!("plain attribute {a:?}"),
                );
                return;
            }
            (FieldKind::Ref(t), false) | (FieldKind::RefSet(t), true) => t,
            (FieldKind::RefSet(_), false) => {
                self.emit(
                    checks::MAT_OF_SET,
                    op,
                    format!("{} to be single-valued (set fields need Unnest)", fd.name),
                    "set of references".to_string(),
                );
                return;
            }
            (FieldKind::Ref(_), true) => {
                self.emit(
                    checks::UNNEST_OF_NON_SET,
                    op,
                    format!("{} to be set-valued", fd.name),
                    "single-valued reference".to_string(),
                );
                return;
            }
        };
        if !self.compat(target, out_ty) {
            self.emit(
                checks::TARGET_TYPE,
                op,
                format!("output typed {}", self.ty_name(target)),
                self.ty_name(out_ty),
            );
        }
        // Each link must lead to an extent whose element type agrees —
        // the catalog half of Mat-chain correctness.
        let extent = self
            .env
            .catalog
            .ref_domain(f)
            .or_else(|| self.env.catalog.extent_of(target));
        if let Some(coll) = extent {
            let et = self.env.catalog.collection(coll).elem_type;
            if !self.compat(et, out_ty) {
                self.emit(
                    checks::EXTENT_TYPE,
                    op,
                    format!(
                        "target extent {} of element type {}",
                        self.env.catalog.collection(coll).name,
                        self.ty_name(et)
                    ),
                    format!("output typed {}", self.ty_name(out_ty)),
                );
            }
        }
    }

    /// The root of a variable's Mat/Unnest origin chain (the base `Get`
    /// variable an index path hangs off).
    fn chain_root(&self, mut v: VarId) -> VarId {
        loop {
            if !self.var_ok(v) {
                return v;
            }
            match self.env.scopes.var(v).origin {
                VarOrigin::Get(_) => return v,
                VarOrigin::Mat { src, .. } | VarOrigin::Unnest { src, .. } => v = src,
            }
        }
    }
}

/// The variables any input binds.
fn union(kids: &[VarSet]) -> VarSet {
    kids.iter().fold(VarSet::EMPTY, |a, &b| a.union(b))
}
