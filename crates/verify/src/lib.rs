//! # `oodb-verify` — static plan analysis
//!
//! The paper's central claim is that a generator-built optimizer stays
//! correct as rules, properties, and algorithms are added. This crate is
//! the machine-checked notion of "a valid plan" backing that claim: a
//! static analyzer over both logical algebra expressions and physical
//! plans, usable as a library pass, from the CLI (`EXPLAIN VERIFY` /
//! `\verify`), and as a debug-mode optimizer hook (`verify_search`).
//!
//! Three passes, all producing structured [`Diagnostic`]s — never panics:
//!
//! * **Plan linter** ([`lint_logical`], [`lint_physical`]) — a typed walk
//!   of the operator tree checking variable scoping/binding (every
//!   variable consumed is produced upstream; `Mat`/`Unnest` introduce
//!   exactly their declared bindings), `Mat`-chain type correctness
//!   against the catalog schema (each link's source field is a
//!   reference / set-of-references whose target extent matches), predicate
//!   and projection attribute resolution, and set-op scope agreement.
//! * **Property checker** ([`check_physical_props`]) — re-derives the
//!   delivered physical properties bottom-up (presence in memory, sort
//!   order) and verifies every operator's requirements are met, i.e. that
//!   enforcers (assembly, sort) are placed where needed and never
//!   redundantly.
//! * **Cost/estimate sanity** ([`check_costs`]) — non-negative, finite,
//!   monotone-non-decreasing cumulative cost up the tree, and cardinality
//!   estimates within bounds derivable from the operator semantics.
//! * **Interval cardinality audit** ([`check_card_intervals`],
//!   [`walk_actual`]) — propagates sound `[lo, hi]` row-count intervals
//!   ([`oodb_algebra::CardInterval`]) bottom-up (exact scans, predicate
//!   relaxation, reference equi-join containment, set-op bounds), flagging
//!   any *estimate* outside its interval; the one walk pairing a plan with
//!   its trace bounds each operator that ran by its inputs' measured rows.
//!
//! [`verify_physical`] composes the plan-level passes for a winning plan.

#![forbid(unsafe_code)]

use oodb_algebra::{
    CardInterval, LogicalOp, LogicalPlan, Operand, PhysProps, PhysicalOp, PhysicalPlan, PredId,
    QueryEnv, SortSpec, VarId, VarOrigin, VarSet,
};
use oodb_object::{FieldId, FieldKind, TypeId};
use std::fmt;

pub mod actual;
pub use actual::{drift_ratio, walk_actual, ActualNode, MAX_DRIFT};

/// Stable names of the invariants the verifier checks. Diagnostics carry
/// one of these in [`Diagnostic::check`]; tests and telemetry key on them.
pub mod checks {
    /// Operator child count disagrees with its declared arity.
    pub const ARITY: &str = "shape/arity";
    /// A predicate id does not resolve in the environment's arena.
    pub const DANGLING_PRED: &str = "shape/dangling-pred";
    /// A variable id does not resolve in the environment's scope arena.
    pub const DANGLING_VAR: &str = "shape/dangling-var";
    /// An index id does not resolve in the catalog.
    pub const DANGLING_INDEX: &str = "shape/dangling-index";
    /// Assembly window of zero open references.
    pub const ZERO_WINDOW: &str = "shape/zero-window";
    /// Merge join predicate is not an attribute equality.
    pub const MERGE_JOIN_PRED: &str = "shape/merge-join-pred";
    /// Pointer join predicate is not a single reference equality.
    pub const POINTER_JOIN_PRED: &str = "shape/pointer-join-pred";
    /// A consumed variable is not produced by any input.
    pub const UNBOUND_VAR: &str = "scope/unbound-var";
    /// A variable is introduced twice along one tuple stream.
    pub const DUPLICATE_BINDING: &str = "scope/duplicate-binding";
    /// Set-operation inputs bind different variable sets.
    pub const SETOP_MISMATCH: &str = "scope/setop-mismatch";
    /// An operator's declared output variable has the wrong origin kind.
    pub const ORIGIN_MISMATCH: &str = "binding/origin-mismatch";
    /// `Mat` through a field that is a plain attribute, not a reference.
    pub const MAT_OF_ATTRIBUTE: &str = "type/mat-of-attribute";
    /// `Mat` through a set-valued field (requires `Unnest`).
    pub const MAT_OF_SET: &str = "type/mat-of-set";
    /// `Unnest` of a field that is not set-valued.
    pub const UNNEST_OF_NON_SET: &str = "type/unnest-of-non-set";
    /// A link field is not declared on the source variable's type.
    pub const FIELD_NOT_ON_SOURCE: &str = "type/field-not-on-source";
    /// The output variable's type disagrees with the link's target type.
    pub const TARGET_TYPE: &str = "type/target-type-mismatch";
    /// The link's catalog extent holds a different element type.
    pub const EXTENT_TYPE: &str = "type/extent-type-mismatch";
    /// Dereference (`Mat` without a field) of a non-reference variable.
    pub const DEREF_OF_NON_REF: &str = "type/deref-of-non-ref";
    /// An operator reads an object that no input delivers in memory.
    pub const INPUT_NOT_IN_MEMORY: &str = "props/input-not-in-memory";
    /// The root does not deliver the query's required memory residency.
    pub const ROOT_MEMORY: &str = "props/root-memory";
    /// The root does not deliver the query's required sort order.
    pub const ROOT_ORDER: &str = "props/root-order";
    /// A merge-join input is not sorted on its join key.
    pub const MERGE_INPUT_UNSORTED: &str = "props/merge-input-unsorted";
    /// A hash-join reference equality whose OID side is not the left
    /// (build) input — the algorithm is directional.
    pub const HASH_BUILD_SIDE: &str = "props/hash-build-side";
    /// An assembly materializes a variable its input already delivers.
    pub const REDUNDANT_ASSEMBLY: &str = "enforcer/redundant-assembly";
    /// A per-operator cost estimate is negative.
    pub const COST_NEGATIVE: &str = "cost/negative";
    /// A cost or cardinality estimate is NaN or infinite.
    pub const COST_NON_FINITE: &str = "cost/non-finite";
    /// Cumulative cost decreases from child to parent.
    pub const COST_NON_MONOTONE: &str = "cost/non-monotone";
    /// A cardinality estimate is negative.
    pub const CARD_NEGATIVE: &str = "card/negative";
    /// A cardinality estimate exceeds its derivable bound.
    pub const CARD_BOUND: &str = "card/bound";
    /// A cardinality estimate escapes its derivable `[lo, hi]` interval —
    /// the cost model produced an infeasible estimate.
    pub const CARD_INTERVAL: &str = "card/interval";
}

/// One verifier finding: which invariant fired, where in the plan, and
/// expected vs actual. Diagnostics are data — callers count or print them;
/// the verifier itself never panics on a malformed plan.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Stable name of the violated invariant (see [`checks`]).
    pub check: &'static str,
    /// Operator path from the root: the child index taken at each level.
    pub path: Vec<usize>,
    /// Display name of the operator at `path`.
    pub op: String,
    /// What the invariant requires.
    pub expected: String,
    /// What the plan actually contains.
    pub actual: String,
}

impl Diagnostic {
    /// Renders the operator path as `root`, `root.0`, `root.0.1`, ...
    pub fn path_string(&self) -> String {
        let mut s = String::from("root");
        for i in &self.path {
            s.push('.');
            s.push_str(&i.to_string());
        }
        s
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] at {} ({}): expected {}, got {}",
            self.check,
            self.path_string(),
            self.op,
            self.expected,
            self.actual
        )
    }
}

/// Lints a logical algebra expression. Empty result = well-formed.
pub fn lint_logical(env: &QueryEnv, plan: &LogicalPlan) -> Vec<Diagnostic> {
    let mut cx = Cx::new(env);
    cx.walk_logical(plan);
    cx.diags
}

/// Lints a physical plan's shape, scoping, and link types.
pub fn lint_physical(env: &QueryEnv, plan: &PhysicalPlan) -> Vec<Diagnostic> {
    let mut cx = Cx::new(env);
    cx.walk_physical(plan);
    cx.diags
}

/// Re-derives delivered physical properties bottom-up and checks every
/// operator's requirements, plus the root's `required` properties.
pub fn check_physical_props(
    env: &QueryEnv,
    plan: &PhysicalPlan,
    required: PhysProps,
) -> Vec<Diagnostic> {
    let mut cx = Cx::new(env);
    let d = cx.walk_props(plan);
    if !required.in_memory.is_subset(d.mem) {
        let missing = required.in_memory.difference(d.mem);
        cx.emit(
            checks::ROOT_MEMORY,
            plan.op.name(),
            format!("{} delivered in memory", cx.vars_string(required.in_memory)),
            format!("{} missing", cx.vars_string(missing)),
        );
    }
    if let Some(o) = required.order {
        if let OrderInfo::Known(delivered) = d.order {
            if delivered != Some(o) {
                cx.emit(
                    checks::ROOT_ORDER,
                    plan.op.name(),
                    format!("output ordered by {}", cx.sort_string(Some(o))),
                    format!("ordered by {}", cx.sort_string(delivered)),
                );
            }
        }
    }
    cx.diags
}

/// Cost/estimate sanity over an annotated physical plan: finite,
/// non-negative per-operator estimates, monotone cumulative cost, and
/// cardinalities within bounds derivable from operator semantics.
pub fn check_costs(env: &QueryEnv, plan: &PhysicalPlan) -> Vec<Diagnostic> {
    let mut cx = Cx::new(env);
    cx.walk_cost(plan);
    cx.diags
}

/// Interval cardinality audit of an annotated physical plan: propagates
/// `[lo, hi]` row-count bounds bottom-up and flags every node whose
/// *estimate* escapes its interval ([`checks::CARD_INTERVAL`]). An
/// estimate inside its interval is *feasible*; one outside it cannot be
/// right whatever the data looks like.
pub fn check_card_intervals(env: &QueryEnv, plan: &PhysicalPlan) -> Vec<Diagnostic> {
    let mut cx = Cx::new(env);
    cx.walk_interval(plan);
    cx.diags
}

/// Full static verification of a winning plan: linter + property checker
/// + cost sanity, with `required` the root goal's physical properties.
pub fn verify_physical(
    env: &QueryEnv,
    plan: &PhysicalPlan,
    required: PhysProps,
) -> Vec<Diagnostic> {
    let mut d = lint_physical(env, plan);
    d.extend(check_physical_props(env, plan, required));
    d.extend(check_costs(env, plan));
    d.extend(check_card_intervals(env, plan));
    d
}

/// The variables a logical expression binds in its output — the linter's
/// bottom-up scope derivation, exposed for harnesses that need to execute
/// an expression as a standalone query.
pub fn logical_vars(env: &QueryEnv, plan: &LogicalPlan) -> VarSet {
    Cx::new(env).walk_logical(plan)
}

/// Relative slack allowed on cardinality bounds (estimates are `f64`
/// chains; exact comparisons would trip on rounding).
const CARD_SLACK: f64 = 1e-6;

/// What the property walk knows about an operator's delivered sort order.
/// `Unknown` keeps the checker conservative: order-dependent diagnostics
/// fire only on positively known mismatches.
#[derive(Clone, Copy, PartialEq, Debug)]
enum OrderInfo {
    /// The delivered order is positively known (possibly "none").
    Known(Option<SortSpec>),
    /// The walk cannot derive the order here; skip order checks above.
    Unknown,
}

/// Delivered physical properties re-derived during the walk.
#[derive(Clone, Copy)]
struct Derived {
    /// Variables bound in the output tuples (scope, not residency).
    produced: VarSet,
    /// Variables whose objects are present in memory.
    mem: VarSet,
    /// Delivered sort order knowledge.
    order: OrderInfo,
}

impl Derived {
    const EMPTY: Derived = Derived {
        produced: VarSet::EMPTY,
        mem: VarSet::EMPTY,
        order: OrderInfo::Known(None),
    };
}

/// Walk context: environment + current path + accumulated diagnostics.
struct Cx<'e> {
    env: &'e QueryEnv,
    path: Vec<usize>,
    diags: Vec<Diagnostic>,
}

impl<'e> Cx<'e> {
    fn new(env: &'e QueryEnv) -> Self {
        Cx {
            env,
            path: Vec::new(),
            diags: Vec::new(),
        }
    }

    fn emit(
        &mut self,
        check: &'static str,
        op: &str,
        expected: impl Into<String>,
        actual: impl Into<String>,
    ) {
        self.diags.push(Diagnostic {
            check,
            path: self.path.clone(),
            op: op.to_string(),
            expected: expected.into(),
            actual: actual.into(),
        });
    }

    fn var_ok(&self, v: VarId) -> bool {
        v.index() < self.env.scopes.len()
    }

    fn pred_ok(&self, p: PredId) -> bool {
        p.index() < self.env.preds.len()
    }

    fn index_ok(&self, id: oodb_object::IndexId) -> bool {
        self.env.catalog.indexes().any(|(i, _)| i == id)
    }

    fn var_name(&self, v: VarId) -> String {
        if self.var_ok(v) {
            self.env.scopes.var(v).name.clone()
        } else {
            format!("v{}", v.index())
        }
    }

    fn vars_string(&self, s: VarSet) -> String {
        let names: Vec<String> = s.iter().map(|v| self.var_name(v)).collect();
        format!("{{{}}}", names.join(", "))
    }

    fn ty_name(&self, t: TypeId) -> String {
        self.env.schema.ty(t).name.clone()
    }

    fn sort_string(&self, o: Option<SortSpec>) -> String {
        match o {
            Some(s) => format!(
                "{}.{}",
                self.var_name(s.var),
                self.env.schema.field(s.field).name
            ),
            None => "nothing".to_string(),
        }
    }

    /// Types compatible up to subtyping in either direction.
    fn compat(&self, a: TypeId, b: TypeId) -> bool {
        a == b || self.env.schema.is_subtype(a, b) || self.env.schema.is_subtype(b, a)
    }

    /// Checks that every variable a predicate mentions is bound upstream.
    fn check_pred_scope(&mut self, pred: PredId, produced: VarSet, op: &str) {
        if !self.pred_ok(pred) {
            self.emit(
                checks::DANGLING_PRED,
                op,
                "an interned predicate id",
                format!("PredId({}) out of range", pred.index()),
            );
            return;
        }
        for v in self.env.preds.vars_used(pred) {
            if !self.var_ok(v) {
                self.emit(
                    checks::DANGLING_VAR,
                    op,
                    "an in-scope variable id",
                    format!("v{} out of range", v.index()),
                );
            } else if !produced.contains(v) {
                self.emit(
                    checks::UNBOUND_VAR,
                    op,
                    format!("predicate variable {} produced upstream", self.var_name(v)),
                    format!("inputs bind only {}", self.vars_string(produced)),
                );
            }
        }
    }

    /// Checks projection item attribute resolution against the scope.
    fn check_items_scope(&mut self, items: &[Operand], produced: VarSet, op: &str) {
        for item in items {
            if let Some(v) = item.var() {
                if !self.var_ok(v) {
                    self.emit(
                        checks::DANGLING_VAR,
                        op,
                        "an in-scope variable id",
                        format!("v{} out of range", v.index()),
                    );
                } else if !produced.contains(v) {
                    self.emit(
                        checks::UNBOUND_VAR,
                        op,
                        format!("projected variable {} produced upstream", self.var_name(v)),
                        format!("inputs bind only {}", self.vars_string(produced)),
                    );
                }
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
    fn check_scan_domain(&mut self, v: VarId, coll: oodb_object::CollectionId, op: &str) {
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

    /// The `Mat`-chain type check: `out` must have a `Mat` origin whose
    /// source is bound upstream, whose link field is a single-valued
    /// reference declared on the source's type, and whose target type and
    /// catalog extent agree with `out`'s declared type.
    fn check_mat_origin(&mut self, out: VarId, produced: VarSet, op: &str) {
        if !self.var_ok(out) {
            self.emit(
                checks::DANGLING_VAR,
                op,
                "an in-scope output variable",
                format!("v{} out of range", out.index()),
            );
            return;
        }
        let sv = self.env.scopes.var(out);
        let VarOrigin::Mat { src, field } = sv.origin else {
            self.emit(
                checks::ORIGIN_MISMATCH,
                op,
                format!("{} bound by a Mat origin", self.var_name(out)),
                format!("{:?}", sv.origin),
            );
            return;
        };
        let out_ty = sv.ty;
        if !self.var_ok(src) {
            self.emit(
                checks::DANGLING_VAR,
                op,
                "a valid Mat source variable",
                format!("v{} out of range", src.index()),
            );
            return;
        }
        if !produced.contains(src) {
            self.emit(
                checks::UNBOUND_VAR,
                op,
                format!("Mat source {} produced upstream", self.var_name(src)),
                format!("inputs bind only {}", self.vars_string(produced)),
            );
        }
        match field {
            Some(f) => self.check_link_field(op, src, f, out_ty, false),
            None => {
                // Dereference of a reference-valued variable (the form a
                // preceding Unnest produces).
                if !self.env.scopes.var(src).is_ref() {
                    self.emit(
                        checks::DEREF_OF_NON_REF,
                        op,
                        format!(
                            "dereference source {} to hold a reference (Unnest origin)",
                            self.var_name(src)
                        ),
                        format!("{:?}", self.env.scopes.var(src).origin),
                    );
                }
            }
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

    /// The `Unnest` origin check: set-valued field on a bound source.
    fn check_unnest_origin(&mut self, out: VarId, produced: VarSet, op: &str) {
        if !self.var_ok(out) {
            self.emit(
                checks::DANGLING_VAR,
                op,
                "an in-scope output variable",
                format!("v{} out of range", out.index()),
            );
            return;
        }
        let sv = self.env.scopes.var(out);
        let VarOrigin::Unnest { src, field } = sv.origin else {
            self.emit(
                checks::ORIGIN_MISMATCH,
                op,
                format!("{} bound by an Unnest origin", self.var_name(out)),
                format!("{:?}", sv.origin),
            );
            return;
        };
        if !self.var_ok(src) {
            self.emit(
                checks::DANGLING_VAR,
                op,
                "a valid Unnest source variable",
                format!("v{} out of range", src.index()),
            );
            return;
        }
        if !produced.contains(src) {
            self.emit(
                checks::UNBOUND_VAR,
                op,
                format!("Unnest source {} produced upstream", self.var_name(src)),
                format!("inputs bind only {}", self.vars_string(produced)),
            );
        }
        self.check_link_field(op, src, field, sv.ty, true);
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

    // ------------------------------------------------------------------
    // Logical linter
    // ------------------------------------------------------------------

    /// Walks a logical expression, emitting diagnostics and returning the
    /// variables the expression binds in its output.
    fn walk_logical(&mut self, plan: &LogicalPlan) -> VarSet {
        let op = logical_name(&plan.op);
        if plan.op.arity() != plan.children.len() {
            self.emit(
                checks::ARITY,
                op,
                format!("{} input(s)", plan.op.arity()),
                format!("{}", plan.children.len()),
            );
        }
        let mut kids = Vec::with_capacity(plan.children.len());
        for (i, c) in plan.children.iter().enumerate() {
            self.path.push(i);
            kids.push(self.walk_logical(c));
            self.path.pop();
        }
        let inherit = kids.iter().fold(VarSet::EMPTY, |a, &b| a.union(b));
        match &plan.op {
            LogicalOp::Get { coll, var } => {
                if !self.var_ok(*var) {
                    self.emit(
                        checks::DANGLING_VAR,
                        op,
                        "an in-scope variable",
                        format!("v{} out of range", var.index()),
                    );
                    return VarSet::EMPTY;
                }
                self.check_scan_domain(*var, *coll, op);
                VarSet::single(*var)
            }
            LogicalOp::Select { pred } => {
                self.check_pred_scope(*pred, inherit, op);
                inherit
            }
            LogicalOp::Project { items } => {
                self.check_items_scope(items, inherit, op);
                inherit
            }
            LogicalOp::Join { pred } => {
                if kids.len() == 2 && !kids[0].intersect(kids[1]).is_empty() {
                    self.emit(
                        checks::DUPLICATE_BINDING,
                        op,
                        "disjoint input scopes",
                        format!(
                            "both sides bind {}",
                            self.vars_string(kids[0].intersect(kids[1]))
                        ),
                    );
                }
                self.check_pred_scope(*pred, inherit, op);
                inherit
            }
            LogicalOp::Mat { out } => {
                self.check_intro(*out, inherit, op);
                self.check_mat_origin(*out, inherit, op);
                inherit.insert(*out)
            }
            LogicalOp::Unnest { out } => {
                self.check_intro(*out, inherit, op);
                self.check_unnest_origin(*out, inherit, op);
                inherit.insert(*out)
            }
            LogicalOp::SetOp { .. } => {
                if kids.len() == 2 && kids[0] != kids[1] {
                    self.emit(
                        checks::SETOP_MISMATCH,
                        op,
                        format!("both inputs binding {}", self.vars_string(kids[0])),
                        self.vars_string(kids[1]),
                    );
                }
                kids.first().copied().unwrap_or(VarSet::EMPTY)
            }
        }
    }

    // ------------------------------------------------------------------
    // Physical linter
    // ------------------------------------------------------------------

    /// Walks a physical plan, emitting shape/scope/type diagnostics and
    /// returning the variables bound in the output tuples.
    fn walk_physical(&mut self, plan: &PhysicalPlan) -> VarSet {
        let op = plan.op.name();
        // Pointer join elides its scan side: the emitted plan carries one
        // child even though the algebra declares two.
        let want_arity = match plan.op {
            PhysicalOp::PointerJoin { .. } => 1,
            _ => plan.op.arity(),
        };
        if want_arity != plan.children.len() {
            self.emit(
                checks::ARITY,
                op,
                format!("{want_arity} input(s)"),
                format!("{}", plan.children.len()),
            );
        }
        let mut kids = Vec::with_capacity(plan.children.len());
        for (i, c) in plan.children.iter().enumerate() {
            self.path.push(i);
            kids.push(self.walk_physical(c));
            self.path.pop();
        }
        let inherit = kids.iter().fold(VarSet::EMPTY, |a, &b| a.union(b));
        match &plan.op {
            PhysicalOp::FileScan { coll, var } => {
                if !self.var_ok(*var) {
                    self.emit(
                        checks::DANGLING_VAR,
                        op,
                        "an in-scope variable",
                        format!("v{} out of range", var.index()),
                    );
                    return VarSet::EMPTY;
                }
                self.check_scan_domain(*var, *coll, op);
                VarSet::single(*var)
            }
            PhysicalOp::IndexScan { index, var, pred } => {
                if !self.var_ok(*var) {
                    self.emit(
                        checks::DANGLING_VAR,
                        op,
                        "an in-scope variable",
                        format!("v{} out of range", var.index()),
                    );
                    return VarSet::EMPTY;
                }
                if !self.index_ok(*index) {
                    self.emit(
                        checks::DANGLING_INDEX,
                        op,
                        "a catalog index id",
                        format!("IndexId({}) out of range", index.index()),
                    );
                    return VarSet::single(*var);
                }
                let idx = self.env.catalog.index(*index);
                self.check_scan_domain(*var, idx.collection, op);
                // The scan answers its predicate through the index; the
                // predicate may mention path-chain variables (never
                // materialized), but each must chain back to the base. The
                // base itself is always fair game: the scan binds it
                // directly, whatever its origin — a Mat→Join `Get` scans
                // the reference's domain under the Mat-origin variable.
                if self.pred_ok(*pred) {
                    for v in self.env.preds.vars_used(*pred) {
                        if v != *var && self.chain_root(v) != *var {
                            self.emit(
                                checks::UNBOUND_VAR,
                                op,
                                format!(
                                    "predicate variable {} reachable from scan base {}",
                                    self.var_name(v),
                                    self.var_name(*var)
                                ),
                                format!("chains to {}", self.var_name(self.chain_root(v))),
                            );
                        }
                    }
                } else {
                    self.emit(
                        checks::DANGLING_PRED,
                        op,
                        "an interned predicate id",
                        format!("PredId({}) out of range", pred.index()),
                    );
                }
                VarSet::single(*var)
            }
            PhysicalOp::Filter { pred } => {
                self.check_pred_scope(*pred, inherit, op);
                inherit
            }
            PhysicalOp::HybridHashJoin { pred } => {
                if kids.len() == 2 && !kids[0].intersect(kids[1]).is_empty() {
                    self.emit(
                        checks::DUPLICATE_BINDING,
                        op,
                        "disjoint input scopes",
                        format!(
                            "both sides bind {}",
                            self.vars_string(kids[0].intersect(kids[1]))
                        ),
                    );
                }
                self.check_pred_scope(*pred, inherit, op);
                // Directional: reference equalities resolve against the
                // build (left) side's OIDs.
                if self.pred_ok(*pred) && kids.len() == 2 {
                    for t in &self.env.preds.pred(*pred).terms {
                        if let Some((_, target)) = t.as_ref_eq() {
                            if !kids[0].contains(target) && kids[1].contains(target) {
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
                inherit
            }
            PhysicalOp::PointerJoin { pred } => {
                if !self.pred_ok(*pred) {
                    self.emit(
                        checks::DANGLING_PRED,
                        op,
                        "an interned predicate id",
                        format!("PredId({}) out of range", pred.index()),
                    );
                    return inherit;
                }
                let p = self.env.preds.pred(*pred);
                let Some(target) = p.terms.first().and_then(|t| t.as_ref_eq()).map(|(_, t)| t)
                else {
                    self.emit(
                        checks::POINTER_JOIN_PRED,
                        op,
                        "a reference-equality predicate",
                        format!("{} term(s), none a reference equality", p.terms.len()),
                    );
                    return inherit;
                };
                self.check_intro(target, inherit, op);
                // The reference side's variables must come from the
                // surviving (left) input.
                for v in self.env.preds.vars_used(*pred) {
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
            PhysicalOp::Assembly { targets, window } => {
                if *window == 0 {
                    self.emit(
                        checks::ZERO_WINDOW,
                        op,
                        "a window of at least one open reference",
                        "0".to_string(),
                    );
                }
                let mut produced = inherit;
                for &t in targets {
                    self.check_intro(t, produced, op);
                    self.check_mat_origin(t, produced, op);
                    produced = produced.insert(t);
                }
                produced
            }
            PhysicalOp::WarmAssembly { target } => {
                self.check_intro(*target, inherit, op);
                self.check_mat_origin(*target, inherit, op);
                inherit.insert(*target)
            }
            PhysicalOp::AlgProject { items } => {
                self.check_items_scope(items, inherit, op);
                inherit
            }
            PhysicalOp::AlgUnnest { out } => {
                self.check_intro(*out, inherit, op);
                self.check_unnest_origin(*out, inherit, op);
                inherit.insert(*out)
            }
            PhysicalOp::HashSetOp { .. } => {
                if kids.len() == 2 && kids[0] != kids[1] {
                    self.emit(
                        checks::SETOP_MISMATCH,
                        op,
                        format!("both inputs binding {}", self.vars_string(kids[0])),
                        self.vars_string(kids[1]),
                    );
                }
                kids.first().copied().unwrap_or(VarSet::EMPTY)
            }
            PhysicalOp::Sort { key } => {
                if self.var_ok(key.var) {
                    if !inherit.contains(key.var) {
                        self.emit(
                            checks::UNBOUND_VAR,
                            op,
                            format!("sort variable {} produced upstream", self.var_name(key.var)),
                            format!("input binds only {}", self.vars_string(inherit)),
                        );
                    }
                } else {
                    self.emit(
                        checks::DANGLING_VAR,
                        op,
                        "an in-scope sort variable",
                        format!("v{} out of range", key.var.index()),
                    );
                }
                inherit
            }
            PhysicalOp::MergeJoin { pred } => {
                if kids.len() == 2 && !kids[0].intersect(kids[1]).is_empty() {
                    self.emit(
                        checks::DUPLICATE_BINDING,
                        op,
                        "disjoint input scopes",
                        format!(
                            "both sides bind {}",
                            self.vars_string(kids[0].intersect(kids[1]))
                        ),
                    );
                }
                self.check_pred_scope(*pred, inherit, op);
                if self.pred_ok(*pred) {
                    let p = self.env.preds.pred(*pred);
                    let is_attr_eq = matches!(
                        p.terms.first(),
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
                inherit
            }
        }
    }

    // ------------------------------------------------------------------
    // Property checker
    // ------------------------------------------------------------------

    /// Re-derives delivered properties bottom-up, checking each operator's
    /// own requirements along the way.
    fn walk_props(&mut self, plan: &PhysicalPlan) -> Derived {
        let op = plan.op.name();
        let mut kids = Vec::with_capacity(plan.children.len());
        for (i, c) in plan.children.iter().enumerate() {
            self.path.push(i);
            kids.push(self.walk_props(c));
            self.path.pop();
        }
        let kid = |i: usize| kids.get(i).copied().unwrap_or(Derived::EMPTY);
        match &plan.op {
            PhysicalOp::FileScan { var, .. } => Derived {
                produced: VarSet::single(*var),
                mem: VarSet::single(*var),
                order: OrderInfo::Known(None),
            },
            PhysicalOp::IndexScan { index, var, pred } => {
                // An unqualified scan is the ordered-index-scan form and
                // delivers index-key order; its exact delivered SortSpec
                // depends on the path mapping, so stay conservative.
                let empty_pred = self.pred_ok(*pred) && self.env.preds.pred(*pred).terms.is_empty();
                let order = if !empty_pred {
                    OrderInfo::Known(None)
                } else if self.index_ok(*index) && self.env.catalog.index(*index).path.is_empty() {
                    OrderInfo::Known(Some(SortSpec {
                        var: *var,
                        field: self.env.catalog.index(*index).key,
                    }))
                } else {
                    OrderInfo::Unknown
                };
                Derived {
                    produced: VarSet::single(*var),
                    mem: VarSet::single(*var),
                    order,
                }
            }
            PhysicalOp::Filter { pred } => {
                let d = kid(0);
                self.require_mem(*pred, d.mem, op, "predicate");
                d
            }
            PhysicalOp::HybridHashJoin { pred } => {
                let (l, r) = (kid(0), kid(1));
                self.require_mem(*pred, l.mem.union(r.mem), op, "join predicate");
                Derived {
                    produced: l.produced.union(r.produced),
                    mem: l.mem.union(r.mem),
                    // Order may pass through from the left input, but the
                    // hash table can also reorder probes; stay unknown.
                    order: OrderInfo::Unknown,
                }
            }
            PhysicalOp::PointerJoin { pred } => {
                let d = kid(0);
                self.require_mem(*pred, d.mem, op, "reference predicate");
                let target = self
                    .pred_ok(*pred)
                    .then(|| {
                        self.env
                            .preds
                            .pred(*pred)
                            .terms
                            .first()
                            .and_then(term_ref_eq)
                    })
                    .flatten();
                let mut out = d;
                if let Some(t) = target {
                    out.produced = out.produced.insert(t);
                    out.mem = out.mem.insert(t);
                }
                out
            }
            PhysicalOp::Assembly { targets, .. } => {
                let d = kid(0);
                let mut mem = d.mem;
                for &t in targets {
                    if d.mem.contains(t) {
                        self.emit(
                            checks::REDUNDANT_ASSEMBLY,
                            op,
                            format!("{} not yet resident below", self.var_name(t)),
                            "input already delivers it in memory".to_string(),
                        );
                    }
                    if self.var_ok(t) {
                        if let VarOrigin::Mat {
                            src,
                            field: Some(_),
                        } = self.env.scopes.var(t).origin
                        {
                            if !mem.contains(src) {
                                self.emit(
                                    checks::INPUT_NOT_IN_MEMORY,
                                    op,
                                    format!(
                                        "reference source {} in memory before assembling {}",
                                        self.var_name(src),
                                        self.var_name(t)
                                    ),
                                    format!("delivered {}", self.vars_string(mem)),
                                );
                            }
                        }
                    }
                    mem = mem.insert(t);
                }
                Derived {
                    produced: targets.iter().fold(d.produced, |a, &t| a.insert(t)),
                    mem,
                    order: d.order,
                }
            }
            PhysicalOp::WarmAssembly { target } => {
                let d = kid(0);
                if d.mem.contains(*target) {
                    self.emit(
                        checks::REDUNDANT_ASSEMBLY,
                        op,
                        format!("{} not yet resident below", self.var_name(*target)),
                        "input already delivers it in memory".to_string(),
                    );
                }
                if self.var_ok(*target) {
                    if let VarOrigin::Mat {
                        src,
                        field: Some(_),
                    } = self.env.scopes.var(*target).origin
                    {
                        if !d.mem.contains(src) {
                            self.emit(
                                checks::INPUT_NOT_IN_MEMORY,
                                op,
                                format!("reference source {} in memory", self.var_name(src)),
                                format!("delivered {}", self.vars_string(d.mem)),
                            );
                        }
                    }
                }
                Derived {
                    produced: d.produced.insert(*target),
                    mem: d.mem.insert(*target),
                    order: d.order,
                }
            }
            PhysicalOp::AlgProject { items } => {
                let d = kid(0);
                for item in items {
                    if let Some(v) = item.mem_var() {
                        if self.needs_memory(v) && !d.mem.contains(v) {
                            self.emit(
                                checks::INPUT_NOT_IN_MEMORY,
                                op,
                                format!("projected object {} in memory", self.var_name(v)),
                                format!("delivered {}", self.vars_string(d.mem)),
                            );
                        }
                    }
                }
                d
            }
            PhysicalOp::AlgUnnest { out } => {
                let d = kid(0);
                if self.var_ok(*out) {
                    if let VarOrigin::Unnest { src, .. } = self.env.scopes.var(*out).origin {
                        if !d.mem.contains(src) {
                            self.emit(
                                checks::INPUT_NOT_IN_MEMORY,
                                op,
                                format!("set owner {} in memory", self.var_name(src)),
                                format!("delivered {}", self.vars_string(d.mem)),
                            );
                        }
                    }
                }
                Derived {
                    produced: d.produced.insert(*out),
                    mem: d.mem.insert(*out),
                    order: d.order,
                }
            }
            PhysicalOp::HashSetOp { .. } => {
                let (l, r) = (kid(0), kid(1));
                Derived {
                    produced: l.produced,
                    mem: l.mem.intersect(r.mem),
                    order: OrderInfo::Unknown,
                }
            }
            PhysicalOp::Sort { key } => {
                let d = kid(0);
                if self.var_ok(key.var) && self.needs_memory(key.var) && !d.mem.contains(key.var) {
                    self.emit(
                        checks::INPUT_NOT_IN_MEMORY,
                        op,
                        format!("sort-key object {} in memory", self.var_name(key.var)),
                        format!("delivered {}", self.vars_string(d.mem)),
                    );
                }
                Derived {
                    produced: d.produced,
                    mem: d.mem,
                    order: OrderInfo::Known(Some(*key)),
                }
            }
            PhysicalOp::MergeJoin { pred } => {
                let (l, r) = (kid(0), kid(1));
                self.require_mem(*pred, l.mem.union(r.mem), op, "join predicate");
                if self.pred_ok(*pred) {
                    let p = self.env.preds.pred(*pred);
                    if let Some(t) = p.terms.first() {
                        if let (
                            Operand::Attr { var: av, field: af },
                            Operand::Attr { var: bv, field: bf },
                        ) = (&t.left, &t.right)
                        {
                            // Assign each key to the side binding its
                            // variable, then demand that side be sorted.
                            for (child, d) in [(0usize, l), (1usize, r)] {
                                let key = if d.produced.contains(*av) {
                                    Some(SortSpec {
                                        var: *av,
                                        field: *af,
                                    })
                                } else if d.produced.contains(*bv) {
                                    Some(SortSpec {
                                        var: *bv,
                                        field: *bf,
                                    })
                                } else {
                                    None
                                };
                                if let (Some(k), OrderInfo::Known(got)) = (key, d.order) {
                                    if got != Some(k) {
                                        self.path.push(child);
                                        let expected = format!(
                                            "input sorted by {}",
                                            self.sort_string(Some(k))
                                        );
                                        let actual = format!("sorted by {}", self.sort_string(got));
                                        self.path.pop();
                                        self.emit(
                                            checks::MERGE_INPUT_UNSORTED,
                                            op,
                                            expected,
                                            actual,
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
                Derived {
                    produced: l.produced.union(r.produced),
                    mem: l.mem.union(r.mem),
                    order: l.order,
                }
            }
        }
    }

    /// Whether evaluating against `v` requires its object state (reference
    /// variables carry their value in the tuple).
    fn needs_memory(&self, v: VarId) -> bool {
        !self.var_ok(v) || !self.env.scopes.var(v).is_ref()
    }

    /// Every variable whose object state the predicate reads must be
    /// delivered in memory.
    fn require_mem(&mut self, pred: PredId, mem: VarSet, op: &str, what: &str) {
        if !self.pred_ok(pred) {
            return; // the linter already reported the dangling id
        }
        for v in self.env.preds.mem_vars(pred) {
            if self.needs_memory(v) && !mem.contains(v) {
                self.emit(
                    checks::INPUT_NOT_IN_MEMORY,
                    op,
                    format!("{} object {} in memory", what, self.var_name(v)),
                    format!("delivered {}", self.vars_string(mem)),
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Cost sanity
    // ------------------------------------------------------------------

    /// Walks the annotated plan, returning `(cumulative_s, out_card)`.
    fn walk_cost(&mut self, plan: &PhysicalPlan) -> (f64, f64) {
        let op = plan.op.name();
        let mut kid_totals = Vec::with_capacity(plan.children.len());
        let mut kid_cards = Vec::with_capacity(plan.children.len());
        for (i, c) in plan.children.iter().enumerate() {
            self.path.push(i);
            let (t, card) = self.walk_cost(c);
            self.path.pop();
            kid_totals.push(t);
            kid_cards.push(card);
        }
        let est = plan.est;
        for (name, v) in [
            ("io_s", est.io_s),
            ("cpu_s", est.cpu_s),
            ("out_card", est.out_card),
        ] {
            if !v.is_finite() {
                self.emit(
                    checks::COST_NON_FINITE,
                    op,
                    format!("finite {name}"),
                    format!("{v}"),
                );
            }
        }
        if est.io_s < 0.0 || est.cpu_s < 0.0 {
            self.emit(
                checks::COST_NEGATIVE,
                op,
                "non-negative operator cost",
                format!("io {} s, cpu {} s", est.io_s, est.cpu_s),
            );
        }
        if est.out_card < 0.0 {
            self.emit(
                checks::CARD_NEGATIVE,
                op,
                "non-negative cardinality",
                format!("{}", est.out_card),
            );
        }
        let total = kid_totals.iter().sum::<f64>() + est.op_total_s();
        // NaN totals are already reported as COST_NON_FINITE, so a plain
        // ordered comparison is enough here.
        for (i, &t) in kid_totals.iter().enumerate() {
            if total < t {
                self.emit(
                    checks::COST_NON_MONOTONE,
                    op,
                    format!("cumulative cost >= input {i}'s {t} s"),
                    format!("{total} s"),
                );
            }
        }
        self.check_card_bound(plan, &kid_cards, op);
        (total, est.out_card)
    }

    /// Per-operator derivable cardinality bounds.
    fn check_card_bound(&mut self, plan: &PhysicalPlan, kids: &[f64], op: &str) {
        let out = plan.est.out_card;
        let kid = |i: usize| kids.get(i).copied().unwrap_or(0.0);
        let bound: Option<(f64, &str)> = match &plan.op {
            PhysicalOp::FileScan { coll, .. } => Some((
                self.env.catalog.collection(*coll).cardinality as f64,
                "collection cardinality",
            )),
            PhysicalOp::IndexScan { index, .. } => self.index_ok(*index).then(|| {
                let c = self.env.catalog.index(*index).collection;
                (
                    self.env.catalog.collection(c).cardinality as f64,
                    "indexed collection cardinality",
                )
            }),
            PhysicalOp::Filter { .. } | PhysicalOp::Sort { .. } => {
                Some((kid(0), "input cardinality"))
            }
            PhysicalOp::Assembly { .. }
            | PhysicalOp::WarmAssembly { .. }
            | PhysicalOp::AlgProject { .. }
            | PhysicalOp::PointerJoin { .. } => Some((kid(0), "input cardinality")),
            PhysicalOp::HybridHashJoin { .. } | PhysicalOp::MergeJoin { .. } => {
                Some((kid(0) * kid(1), "cross-product of the inputs"))
            }
            PhysicalOp::HashSetOp { kind } => Some(match kind {
                oodb_algebra::SetOpKind::Union => (kid(0) + kid(1), "sum of the inputs"),
                oodb_algebra::SetOpKind::Intersect => {
                    (kid(0).min(kid(1)), "smaller input cardinality")
                }
                oodb_algebra::SetOpKind::Difference => (kid(0), "left input cardinality"),
            }),
            // Unnest fans out by set size; no bound derivable here.
            PhysicalOp::AlgUnnest { .. } => None,
        };
        if let Some((b, what)) = bound {
            if out > b * (1.0 + CARD_SLACK) + CARD_SLACK {
                self.emit(
                    checks::CARD_BOUND,
                    op,
                    format!("out_card <= {what} ({b})"),
                    format!("{out}"),
                );
            }
        }
    }

    /// Bottom-up interval propagation over a physical plan, checking each
    /// node's *estimate* against its interval. Returns the root interval.
    fn walk_interval(&mut self, plan: &PhysicalPlan) -> CardInterval {
        let mut kids = Vec::with_capacity(plan.children.len());
        for (i, c) in plan.children.iter().enumerate() {
            self.path.push(i);
            kids.push(self.walk_interval(c));
            self.path.pop();
        }
        let iv = self.phys_interval(plan, &kids);
        let out = plan.est.out_card;
        // Non-finite/negative estimates are COST_NON_FINITE/CARD_NEGATIVE.
        if out.is_finite() && out >= 0.0 && !iv.contains(out) {
            self.emit(
                checks::CARD_INTERVAL,
                plan.op.name(),
                format!("out_card within {iv}"),
                format!("{out}"),
            );
        }
        iv
    }

    /// The `[lo, hi]` row-count interval of one physical operator given
    /// its children's intervals. Sound w.r.t. executor semantics: scans
    /// are pinned to catalog cardinality, predicates drop the lower bound,
    /// count-preserving operators (assembly, sort, pointer join in its
    /// well-formed single-reference-equality shape) pass intervals
    /// through, and a reference equi-join against a side that is provably
    /// distinct in the target variable emits at most one row per row of
    /// the other side (containment).
    fn phys_interval(&self, plan: &PhysicalPlan, kids: &[CardInterval]) -> CardInterval {
        let kid = |i: usize| kids.get(i).copied().unwrap_or(CardInterval::UNBOUNDED);
        match &plan.op {
            PhysicalOp::FileScan { coll, .. } => {
                CardInterval::exact(self.env.catalog.collection(*coll).cardinality as f64)
            }
            PhysicalOp::IndexScan { index, pred, .. } => {
                if !self.index_ok(*index) {
                    return CardInterval::UNBOUNDED;
                }
                let c = self.env.catalog.index(*index).collection;
                let n = self.env.catalog.collection(c).cardinality as f64;
                if self.pred_empty(*pred) {
                    // Empty predicate = full ordered sweep: every member.
                    CardInterval::exact(n)
                } else {
                    CardInterval::at_most(n)
                }
            }
            PhysicalOp::Filter { pred } => {
                if self.pred_empty(*pred) {
                    kid(0)
                } else {
                    kid(0).relax_lo()
                }
            }
            PhysicalOp::PointerJoin { pred } => {
                if self.single_ref_eq(*pred) {
                    kid(0)
                } else {
                    kid(0).relax_lo()
                }
            }
            PhysicalOp::Assembly { .. }
            | PhysicalOp::WarmAssembly { .. }
            | PhysicalOp::Sort { .. }
            | PhysicalOp::AlgProject { .. } => kid(0),
            PhysicalOp::AlgUnnest { .. } => CardInterval::UNBOUNDED,
            PhysicalOp::HybridHashJoin { pred } | PhysicalOp::MergeJoin { pred } => {
                self.join_interval(*pred, &plan.children, kid(0), kid(1))
            }
            PhysicalOp::HashSetOp { kind } => match kind {
                oodb_algebra::SetOpKind::Union => kid(0).sum(kid(1)).relax_lo(),
                oodb_algebra::SetOpKind::Intersect => {
                    CardInterval::at_most(kid(0).hi.min(kid(1).hi))
                }
                oodb_algebra::SetOpKind::Difference => CardInterval::at_most(kid(0).hi),
            },
        }
    }

    /// Join interval: cross product, lower bound dropped when a predicate
    /// can eliminate rows, upper bound tightened by reference-equality
    /// containment when the side binding the target variable is provably
    /// distinct in it (each row of the other side then matches at most one
    /// row).
    fn join_interval(
        &self,
        pred: PredId,
        children: &[PhysicalPlan],
        l: CardInterval,
        r: CardInterval,
    ) -> CardInterval {
        let mut iv = if self.pred_empty(pred) {
            l.cross(r)
        } else {
            l.cross(r).relax_lo()
        };
        if !self.pred_ok(pred) || children.len() != 2 {
            return iv;
        }
        for t in &self.env.preds.pred(pred).terms {
            if let Some(tv) = term_ref_eq(t) {
                if phys_binds(&children[0], tv) {
                    if phys_distinct_in(&children[0], tv) {
                        iv = iv.cap(r.hi);
                    }
                } else if phys_binds(&children[1], tv) && phys_distinct_in(&children[1], tv) {
                    iv = iv.cap(l.hi);
                }
            }
        }
        iv
    }

    /// True when the predicate resolves and has no terms (always-true).
    fn pred_empty(&self, p: PredId) -> bool {
        self.pred_ok(p) && self.env.preds.pred(p).terms.is_empty()
    }

    /// True when the predicate is a single reference equality — the shape
    /// in which a pointer join is count-preserving.
    fn single_ref_eq(&self, p: PredId) -> bool {
        self.pred_ok(p) && {
            let terms = &self.env.preds.pred(p).terms;
            terms.len() == 1 && terms[0].as_ref_eq().is_some()
        }
    }
}

/// Whether a physical subtree binds `v` in its output tuples.
fn phys_binds(plan: &PhysicalPlan, v: VarId) -> bool {
    let here = match &plan.op {
        PhysicalOp::FileScan { var, .. } | PhysicalOp::IndexScan { var, .. } => *var == v,
        PhysicalOp::Assembly { targets, .. } => targets.contains(&v),
        PhysicalOp::WarmAssembly { target } => *target == v,
        PhysicalOp::AlgUnnest { out } => *out == v,
        _ => false,
    };
    here || plan.children.iter().any(|c| phys_binds(c, v))
}

/// Whether every output row of a physical subtree carries a *distinct*
/// object for `v`. Conservative: `false` whenever distinctness cannot be
/// proven (joins, unnests, unions, variables the operator introduces by
/// dereference).
fn phys_distinct_in(plan: &PhysicalPlan, v: VarId) -> bool {
    let kid0 = |p: &PhysicalPlan| p.children.first().is_some_and(|c| phys_distinct_in(c, v));
    match &plan.op {
        PhysicalOp::FileScan { var, .. } | PhysicalOp::IndexScan { var, .. } => *var == v,
        PhysicalOp::Filter { .. }
        | PhysicalOp::Sort { .. }
        | PhysicalOp::AlgProject { .. }
        | PhysicalOp::PointerJoin { .. } => kid0(plan),
        PhysicalOp::Assembly { targets, .. } => !targets.contains(&v) && kid0(plan),
        PhysicalOp::WarmAssembly { target } => *target != v && kid0(plan),
        PhysicalOp::AlgUnnest { .. }
        | PhysicalOp::HybridHashJoin { .. }
        | PhysicalOp::MergeJoin { .. } => false,
        PhysicalOp::HashSetOp { kind } => match kind {
            oodb_algebra::SetOpKind::Union => false,
            oodb_algebra::SetOpKind::Intersect | oodb_algebra::SetOpKind::Difference => kid0(plan),
        },
    }
}

/// The ref-eq target of a term, free-function form for use in closures.
fn term_ref_eq(t: &oodb_algebra::Term) -> Option<VarId> {
    t.as_ref_eq().map(|(_, v)| v)
}

fn logical_name(op: &LogicalOp) -> &'static str {
    match op {
        LogicalOp::Get { .. } => "Get",
        LogicalOp::Select { .. } => "Select",
        LogicalOp::Project { .. } => "Project",
        LogicalOp::Join { .. } => "Join",
        LogicalOp::Mat { .. } => "Mat",
        LogicalOp::Unnest { .. } => "Unnest",
        LogicalOp::SetOp { kind } => kind.name(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_algebra::QueryBuilder;
    use oodb_object::paper::paper_model;
    use oodb_object::Value;

    /// Query 2's logical form: Select over Mat over Get.
    fn q2() -> (QueryEnv, LogicalPlan, VarId, VarId) {
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (cities, c) = qb.get(m.ids.cities, "c");
        let (matd, cm) = qb.mat(cities, c, m.ids.city_mayor, "cm");
        let pred = qb.eq_const(cm, m.ids.person_name, Value::str("Joe"));
        let plan = qb.select(matd, pred);
        (qb.into_env(), plan, c, cm)
    }

    #[test]
    fn valid_logical_plan_lints_clean() {
        let (env, plan, ..) = q2();
        assert_eq!(lint_logical(&env, &plan), vec![]);
    }

    #[test]
    fn dropped_mat_link_is_pinpointed() {
        let (env, plan, ..) = q2();
        // Splice the Mat out: Select directly over Get. The predicate's cm
        // is now unbound, and the Select at the root is the culprit.
        let broken = LogicalPlan {
            op: plan.op.clone(),
            children: vec![plan.children[0].children[0].clone()],
        };
        let diags = lint_logical(&env, &broken);
        assert!(
            diags
                .iter()
                .any(|d| d.check == checks::UNBOUND_VAR && d.path.is_empty() && d.op == "Select"),
            "{diags:?}"
        );
    }

    #[test]
    fn swapped_binding_is_pinpointed() {
        let (env, plan, c, _) = q2();
        // Rebind the Mat to the Get variable: origin kind no longer fits.
        let mut broken = plan.clone();
        broken.children[0].op = LogicalOp::Mat { out: c };
        let diags = lint_logical(&env, &broken);
        assert!(
            diags
                .iter()
                .any(|d| d.check == checks::ORIGIN_MISMATCH && d.path == vec![0]),
            "{diags:?}"
        );
        // Rebinding the already-bound c is also a duplicate binding.
        assert!(
            diags
                .iter()
                .any(|d| d.check == checks::DUPLICATE_BINDING && d.path == vec![0]),
            "{diags:?}"
        );
    }

    /// A Mat→Join `Get` scans the reference's domain collection binding
    /// the Mat-origin variable directly; a collapsed index scan over that
    /// shape predicates on the scan's own base. That is bound by the scan
    /// itself and must not be flagged — only predicate variables that
    /// chain to a *different* root are unbound.
    #[test]
    fn index_scan_predicate_on_its_own_mat_origin_base_is_bound() {
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (tasks, t) = qb.get(m.ids.tasks, "t");
        let (unnested, mm) = qb.unnest(tasks, t, m.ids.task_team_members, "m");
        let (_matd, me) = qb.mat_deref(unnested, mm, "e");
        let good = qb.eq_const(me, m.ids.person_name, Value::str("Fred"));
        let bad = qb.eq_const(t, m.ids.task_time, Value::Int(100));
        let env = qb.into_env();
        let scan = |pred| PhysicalPlan {
            op: PhysicalOp::IndexScan {
                index: m.ids.idx_employees_name,
                var: me,
                pred,
            },
            children: vec![],
            est: Default::default(),
        };
        // Predicate on the scan's own base variable: bound, whatever the
        // base's origin chain says.
        assert_eq!(lint_physical(&env, &scan(good)), vec![]);
        // A predicate variable rooted elsewhere is still an error.
        let diags = lint_physical(&env, &scan(bad));
        assert!(
            diags.iter().any(|d| d.check == checks::UNBOUND_VAR),
            "{diags:?}"
        );
    }

    #[test]
    fn setop_scope_mismatch_detected() {
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (cities, c) = qb.get(m.ids.cities, "c");
        let (matd, _cm) = qb.mat(cities.clone(), c, m.ids.city_mayor, "cm");
        let bad = qb.set_op(oodb_algebra::SetOpKind::Union, cities, matd);
        let env = qb.into_env();
        let diags = lint_logical(&env, &bad);
        assert!(
            diags.iter().any(|d| d.check == checks::SETOP_MISMATCH),
            "{diags:?}"
        );
    }

    #[test]
    fn cost_sanity_flags_negative_and_non_monotone() {
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (_, c) = qb.get(m.ids.cities, "c");
        let env = qb.into_env();
        let cities_card = m.catalog.collection(m.ids.cities).cardinality as f64;
        let scan = PhysicalPlan {
            op: PhysicalOp::FileScan {
                coll: m.ids.cities,
                var: c,
            },
            children: vec![],
            est: oodb_algebra::PlanEst {
                out_card: cities_card,
                io_s: 1.0,
                cpu_s: 0.1,
            },
        };
        let bad = PhysicalPlan {
            op: PhysicalOp::Filter {
                pred: PredId::from_index(0),
            },
            children: vec![scan],
            est: oodb_algebra::PlanEst {
                out_card: cities_card * 10.0, // filters cannot grow output
                io_s: -0.5,                   // negative => non-monotone too
                cpu_s: 0.0,
            },
        };
        let diags = check_costs(&env, &bad);
        for check in [
            checks::COST_NEGATIVE,
            checks::COST_NON_MONOTONE,
            checks::CARD_BOUND,
        ] {
            assert!(diags.iter().any(|d| d.check == check), "{check}: {diags:?}");
        }
    }

    /// Filter-over-scan with parameterized estimates, for interval tests.
    pub(super) fn scan_filter_plan(
        m: &oodb_object::paper::PaperModel,
        pred: PredId,
        c: VarId,
        scan_card: f64,
        filter_card: f64,
    ) -> PhysicalPlan {
        PhysicalPlan {
            op: PhysicalOp::Filter { pred },
            children: vec![PhysicalPlan {
                op: PhysicalOp::FileScan {
                    coll: m.ids.cities,
                    var: c,
                },
                children: vec![],
                est: oodb_algebra::PlanEst {
                    out_card: scan_card,
                    io_s: 1.0,
                    cpu_s: 0.0,
                },
            }],
            est: oodb_algebra::PlanEst {
                out_card: filter_card,
                io_s: 0.0,
                cpu_s: 0.1,
            },
        }
    }

    #[test]
    fn interval_audit_accepts_feasible_estimates_and_flags_escapes() {
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (_, c) = qb.get(m.ids.cities, "c");
        let pred = qb.eq_const(c, m.ids.city_name, Value::str("Lima"));
        let env = qb.into_env();
        let n = m.catalog.collection(m.ids.cities).cardinality as f64;
        assert!(n > 2.0, "paper model cities must be non-trivial");
        // Scan pinned to catalog cardinality, filter below it: feasible.
        let good = scan_filter_plan(&m, pred, c, n, n / 2.0);
        assert_eq!(check_card_intervals(&env, &good), vec![]);
        assert_eq!(Cx::new(&env).walk_interval(&good), CardInterval::at_most(n));
        // A scan estimating *below* collection cardinality is infeasible —
        // the lower-bound violation CARD_BOUND cannot see.
        let low = scan_filter_plan(&m, pred, c, n / 2.0, n / 4.0);
        let diags = check_card_intervals(&env, &low);
        assert!(
            diags
                .iter()
                .any(|d| d.check == checks::CARD_INTERVAL && d.path == vec![0]),
            "{diags:?}"
        );
        // A filter estimating above its input escapes upward.
        let high = scan_filter_plan(&m, pred, c, n, n * 2.0);
        let diags = check_card_intervals(&env, &high);
        assert!(
            diags
                .iter()
                .any(|d| d.check == checks::CARD_INTERVAL && d.path.is_empty()),
            "{diags:?}"
        );
    }

    #[test]
    fn ref_eq_join_containment_tightens_the_bound() {
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (people, p) = qb.get(m.ids.person_extent, "p");
        let (cities, c) = qb.get(m.ids.cities, "c");
        let pred = qb.ref_eq(c, m.ids.city_mayor, p);
        qb.join(people, cities, pred);
        let env = qb.into_env();
        let n_c = m.catalog.collection(m.ids.cities).cardinality as f64;
        let n_p = m.catalog.collection(m.ids.person_extent).cardinality as f64;
        assert!(n_p > n_c, "containment must be visible");
        // Each city references one mayor; the mayor side is distinct in p,
        // so the join emits at most one row per city — not n_c × n_p.
        let phys = PhysicalPlan {
            op: PhysicalOp::HybridHashJoin { pred },
            children: vec![
                PhysicalPlan {
                    op: PhysicalOp::FileScan {
                        coll: m.ids.person_extent,
                        var: p,
                    },
                    children: vec![],
                    est: Default::default(),
                },
                PhysicalPlan {
                    op: PhysicalOp::FileScan {
                        coll: m.ids.cities,
                        var: c,
                    },
                    children: vec![],
                    est: Default::default(),
                },
            ],
            est: Default::default(),
        };
        assert_eq!(
            Cx::new(&env).walk_interval(&phys),
            CardInterval::at_most(n_c),
            "physical containment"
        );
    }

    #[test]
    fn diagnostic_renders_with_path() {
        let d = Diagnostic {
            check: checks::UNBOUND_VAR,
            path: vec![0, 1],
            op: "Select".into(),
            expected: "x bound".into(),
            actual: "nothing".into(),
        };
        assert_eq!(d.path_string(), "root.0.1");
        let s = d.to_string();
        assert!(
            s.contains("scope/unbound-var") && s.contains("root.0.1"),
            "{s}"
        );
    }
}
