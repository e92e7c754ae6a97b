//! # `oodb-verify` — static plan analysis
//!
//! The paper's central claim is that a generator-built optimizer stays
//! correct as rules, properties, and algorithms are added. This crate is
//! the machine-checked notion of "a valid plan" backing that claim: a
//! static analyzer over both logical algebra expressions and physical
//! plans, usable as a library pass, from the CLI (`EXPLAIN VERIFY`), and
//! as a debug-mode optimizer hook (`verify_search`).
//!
//! Four passes, one module each, all producing structured [`Diagnostic`]s
//! — never panics:
//!
//! * **Plan linter** (`lint`: [`lint_logical`], [`lint_physical`]) — a
//!   typed walk of the operator tree checking variable scoping/binding
//!   (every variable consumed is produced upstream; `Mat`/`Unnest`
//!   introduce exactly their declared bindings), `Mat`-chain type
//!   correctness against the catalog schema (each link's source field is
//!   a reference / set-of-references whose target extent matches),
//!   predicate and projection attribute resolution, and set-op scope
//!   agreement.
//! * **Property checker** (`props`: [`check_physical_props`]) — re-derives
//!   the delivered physical properties bottom-up (presence in memory, sort
//!   order) and verifies every operator's requirements are met, i.e. that
//!   enforcers (assembly, sort) are placed where needed and never
//!   redundantly.
//! * **Cost/estimate sanity** (`cost`: [`check_costs`]) — non-negative,
//!   finite, monotone-non-decreasing cumulative cost up the tree, and
//!   cardinality estimates within bounds derivable from the operator
//!   semantics.
//! * **Interval cardinality audit** (`interval`: [`check_card_intervals`];
//!   [`actual`]: [`walk_actual`]) — propagates sound `[lo, hi]` row-count
//!   intervals ([`oodb_algebra::CardInterval`]) bottom-up (exact scans,
//!   predicate relaxation, reference equi-join containment, set-op
//!   bounds), flagging any *estimate* outside its interval; the one walk
//!   pairing a plan with its trace bounds each operator that ran by its
//!   inputs' measured rows.
//!
//! [`verify_physical`] composes all four for a winning plan. This module
//! holds the invariant names ([`checks`]), [`Diagnostic`], the entry
//! points, and the walk context every pass shares.

#![forbid(unsafe_code)]

use oodb_algebra::{
    LogicalPlan, PhysProps, PhysicalOp, PhysicalPlan, PredId, QueryEnv, SortSpec, VarId, VarSet,
};
use oodb_object::TypeId;
use props::OrderInfo;
use std::fmt;

pub mod actual;
mod cost;
mod interval;
mod lint;
mod props;
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
    /// A collection id does not resolve in the catalog.
    pub const DANGLING_COLLECTION: &str = "shape/dangling-collection";
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

/// Full static verification of a winning plan: the linter, the property
/// checker, cost sanity and the interval audit, with `required` the root
/// goal's physical properties.
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

    /// Walks each child under its own path step, left to right.
    fn walk_kids<P, T>(
        &mut self,
        children: &[P],
        mut walk: impl FnMut(&mut Self, &P) -> T,
    ) -> Vec<T> {
        let mut out = Vec::with_capacity(children.len());
        for (i, c) in children.iter().enumerate() {
            self.path.push(i);
            out.push(walk(self, c));
            self.path.pop();
        }
        out
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

    fn coll_ok(&self, id: oodb_object::CollectionId) -> bool {
        self.env.catalog.collections().any(|(c, _)| c == id)
    }

    /// True when the predicate resolves and has no terms (always-true).
    fn pred_empty(&self, p: PredId) -> bool {
        self.pred_ok(p) && self.env.preds.pred(p).terms.is_empty()
    }

    /// The target variable of the predicate's leading reference equality —
    /// the variable a pointer join introduces.
    fn ref_eq_target(&self, p: PredId) -> Option<VarId> {
        if !self.pred_ok(p) {
            return None;
        }
        let first = self.env.preds.pred(p).terms.first()?;
        first.as_ref_eq().map(|(_, t)| t)
    }

    /// The catalog cardinality of the collection a scan reads, when its
    /// ids resolve.
    fn scan_card(&self, op: &PhysicalOp) -> Option<f64> {
        let coll = match op {
            PhysicalOp::FileScan { coll, .. } if self.coll_ok(*coll) => *coll,
            PhysicalOp::IndexScan { index, .. } if self.index_ok(*index) => {
                self.env.catalog.index(*index).collection
            }
            _ => return None,
        };
        Some(self.env.catalog.collection(coll).cardinality as f64)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_algebra::{CardInterval, LogicalOp, PhysicalOp, QueryBuilder};
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

    /// A scan over a collection the catalog never registered is a
    /// diagnostic, not a panic, at every entry point: the linters name it,
    /// and the estimate passes bound nothing at that node.
    #[test]
    fn dangling_collection_is_reported_not_a_panic() {
        let (env, _, c, _) = q2();
        let coll = oodb_object::CollectionId::from_index(999);
        let get = LogicalPlan {
            op: LogicalOp::Get { coll, var: c },
            children: vec![],
        };
        let scan = PhysicalPlan {
            op: PhysicalOp::FileScan { coll, var: c },
            children: vec![],
            est: oodb_algebra::PlanEst {
                out_card: 5.0,
                io_s: 1.0,
                cpu_s: 0.1,
            },
        };
        let dangling = |diags: Vec<Diagnostic>| {
            diags
                .iter()
                .filter(|d| d.check == checks::DANGLING_COLLECTION)
                .count()
        };
        assert_eq!(dangling(lint_logical(&env, &get)), 1);
        assert_eq!(dangling(lint_physical(&env, &scan)), 1);
        assert_eq!(dangling(verify_physical(&env, &scan, PhysProps::NONE)), 1);
        assert_eq!(check_costs(&env, &scan), vec![]);
        assert_eq!(check_card_intervals(&env, &scan), vec![]);
        assert_eq!(Cx::new(&env).walk_interval(&scan), CardInterval::UNBOUNDED);
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
