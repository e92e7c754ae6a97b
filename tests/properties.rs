//! Property-based integration tests (proptest): random conjunctive
//! queries over the generated database, checking that
//!
//! * the optimizer always finds a plan and it never estimates worse than
//!   the naive (transformation-free) plan;
//! * the optimal plan, the naive plan, and a direct per-object oracle all
//!   agree on the result set;
//! * core data structures (VarSet, the memo) uphold their invariants
//!   under randomized use.

use oodb_core::{OpenOodb, OptimizerConfig};
use oodb_object::paper::PaperModel;
use open_oodb::prelude::*;
use proptest::prelude::*;
use std::sync::OnceLock;

fn db() -> &'static (Store, PaperModel) {
    static DB: OnceLock<(Store, PaperModel)> = OnceLock::new();
    DB.get_or_init(|| {
        generate_paper_db(GenConfig {
            scale_div: 100,
            ..Default::default()
        })
    })
}

/// One atomic predicate of the random query, as an abstract description.
#[derive(Clone, Debug)]
enum Cond {
    AgeGe(i64),
    SalaryLt(i64),
    NameEq(usize),
    DeptFloorEq(i64),
    PlantLocDallas,
    JobGradeGe(i64),
}

fn cond_strategy() -> impl Strategy<Value = Cond> {
    prop_oneof![
        (18i64..70).prop_map(Cond::AgeGe),
        (20_000i64..150_000).prop_map(Cond::SalaryLt),
        (0usize..100).prop_map(Cond::NameEq),
        (1i64..=10).prop_map(Cond::DeptFloorEq),
        Just(Cond::PlantLocDallas),
        (1i64..16).prop_map(Cond::JobGradeGe),
    ]
}

fn emp_name(i: usize) -> String {
    if i == 0 {
        "Fred".to_string()
    } else {
        format!("e{i:05}")
    }
}

/// Evaluates a condition directly against the store — the oracle.
fn oracle_holds(store: &Store, m: &PaperModel, e: oodb_object::Oid, c: &Cond) -> bool {
    let ids = &m.ids;
    match c {
        Cond::AgeGe(k) => store.read_field(e, ids.person_age).as_int().unwrap() >= *k,
        Cond::SalaryLt(k) => store.read_field(e, ids.emp_salary).as_int().unwrap() < *k,
        Cond::NameEq(i) => store.read_field(e, ids.person_name) == &Value::str(&emp_name(*i)),
        Cond::DeptFloorEq(k) => {
            store.try_eval_path(e, &[ids.emp_dept], ids.dept_floor) == Ok(Value::Int(*k))
        }
        Cond::PlantLocDallas => {
            store.try_eval_path(e, &[ids.emp_dept, ids.dept_plant], ids.plant_location)
                == Ok(Value::str("Dallas"))
        }
        Cond::JobGradeGe(k) => store
            .try_eval_path(e, &[ids.emp_job], ids.job_pay_grade)
            .unwrap()
            .partial_cmp_val(&Value::Int(*k))
            .is_some_and(|o| o != std::cmp::Ordering::Less),
    }
}

/// Builds the simplified-algebra query for a set of conditions.
fn build_query(
    m: &PaperModel,
    conds: &[Cond],
) -> (
    oodb_algebra::QueryEnv,
    LogicalPlan,
    VarSet,
    oodb_algebra::VarId,
) {
    use oodb_algebra::{CmpOp, Operand, Term};
    let ids = &m.ids;
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (mut plan, e) = qb.get(ids.employees, "e");
    let mut d = None;
    let mut dp = None;
    let mut j = None;
    // Materialize components lazily, sharing variables — what the ZQL
    // simplifier would do.
    for c in conds {
        match c {
            Cond::DeptFloorEq(_) if d.is_none() => {
                let (p, v) = qb.mat(plan, e, ids.emp_dept, "d");
                plan = p;
                d = Some(v);
            }
            Cond::PlantLocDallas => {
                if d.is_none() {
                    let (p, v) = qb.mat(plan, e, ids.emp_dept, "d");
                    plan = p;
                    d = Some(v);
                }
                if dp.is_none() {
                    let (p, v) = qb.mat(plan, d.unwrap(), ids.dept_plant, "dp");
                    plan = p;
                    dp = Some(v);
                }
            }
            Cond::JobGradeGe(_) if j.is_none() => {
                let (p, v) = qb.mat(plan, e, ids.emp_job, "j");
                plan = p;
                j = Some(v);
            }
            _ => {}
        }
    }
    let attr = |var, field| Operand::Attr { var, field };
    let term = |left, op, right| Term { left, op, right };
    let terms: Vec<Term> = conds
        .iter()
        .map(|c| match c {
            Cond::AgeGe(k) => term(
                attr(e, ids.person_age),
                CmpOp::Ge,
                Operand::Const(Value::Int(*k)),
            ),
            Cond::SalaryLt(k) => term(
                attr(e, ids.emp_salary),
                CmpOp::Lt,
                Operand::Const(Value::Int(*k)),
            ),
            Cond::NameEq(i) => term(
                attr(e, ids.person_name),
                CmpOp::Eq,
                Operand::Const(Value::str(&emp_name(*i))),
            ),
            Cond::DeptFloorEq(k) => term(
                attr(d.unwrap(), ids.dept_floor),
                CmpOp::Eq,
                Operand::Const(Value::Int(*k)),
            ),
            Cond::PlantLocDallas => term(
                attr(dp.unwrap(), ids.plant_location),
                CmpOp::Eq,
                Operand::Const(Value::str("Dallas")),
            ),
            Cond::JobGradeGe(k) => term(
                attr(j.unwrap(), ids.job_pay_grade),
                CmpOp::Ge,
                Operand::Const(Value::Int(*k)),
            ),
        })
        .collect();
    let pred = qb.conj(terms);
    let plan = qb.select(plan, pred);
    (qb.into_env(), plan, VarSet::single(e), e)
}

/// Every transformation disabled: the plan executes literally as written.
fn naive_config() -> OptimizerConfig {
    use oodb_core::config::rule_names as rn;
    OptimizerConfig::without(&[
        rn::SELECT_SPLIT,
        rn::SELECT_MAT_SWAP,
        rn::SELECT_UNNEST_SWAP,
        rn::SELECT_JOIN_PUSH,
        rn::SELECT_INTO_JOIN,
        rn::MAT_TO_JOIN,
        rn::JOIN_COMMUTE,
        rn::JOIN_ASSOC,
        rn::MAT_MAT_SWAP,
        rn::MAT_JOIN_PUSH,
        rn::COLLAPSE_TO_INDEX_SCAN,
        rn::POINTER_JOIN,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Optimal and naive plans return the oracle's result set, and the
    /// optimizer never estimates the optimal plan above the naive one.
    #[test]
    fn random_queries_agree_with_oracle(
        conds in proptest::collection::vec(cond_strategy(), 1..4)
    ) {
        let (store, m) = db();
        let expected: std::collections::HashSet<oodb_object::Oid> = store
            .members(m.ids.employees)
            .iter()
            .copied()
            .filter(|&e| conds.iter().all(|c| oracle_holds(store, m, e, c)))
            .collect();

        let (env, plan, result_vars, e_var) = build_query(m, &conds);
        let optimal = OpenOodb::with_config(&env, OptimizerConfig::all_rules())
            .optimize(&plan, result_vars)
            .expect("optimal plan");
        let naive = OpenOodb::with_config(&env, naive_config())
            .optimize(&plan, result_vars)
            .expect("naive plan");
        prop_assert!(
            optimal.cost.total() <= naive.cost.total() + 1e-9,
            "optimal {} must not exceed naive {}",
            optimal.cost.total(),
            naive.cost.total()
        );

        for out in [&optimal, &naive] {
            let (result, _) = execute(store, &env, &out.plan);
            let got: std::collections::HashSet<oodb_object::Oid> =
                result.tuples().iter().map(|t| t.get(e_var)).collect();
            prop_assert_eq!(&got, &expected);
        }
    }

    /// Every randomly generated valid algebra tree passes the static
    /// linter, and the winning physical plan passes full verification
    /// (linter + property checker + cost sanity).
    #[test]
    fn linter_accepts_random_valid_queries(
        conds in proptest::collection::vec(cond_strategy(), 1..4)
    ) {
        use oodb_core::verify;
        let (_, m) = db();
        let (env, plan, result_vars, _) = build_query(m, &conds);
        let diags = verify::lint_logical(&env, &plan);
        prop_assert!(diags.is_empty(), "linter rejected a valid tree: {diags:?}");
        let out = OpenOodb::with_config(&env, OptimizerConfig::all_rules())
            .optimize(&plan, result_vars)
            .expect("optimal plan");
        prop_assert!(
            out.diagnostics.is_empty(),
            "verifier flagged a sound winning plan: {:?}",
            out.diagnostics
        );
    }

    /// VarSet behaves like a HashSet<usize> under random operations.
    #[test]
    fn varset_models_hashset(ops in proptest::collection::vec((0usize..64, any::<bool>()), 0..40)) {
        use std::collections::HashSet;
        let mut vs = VarSet::EMPTY;
        let mut hs: HashSet<usize> = HashSet::new();
        for (i, insert) in ops {
            let v = oodb_algebra::VarId::from_index(i);
            if insert {
                vs = vs.insert(v);
                hs.insert(i);
            } else {
                vs = vs.remove(v);
                hs.remove(&i);
            }
            prop_assert_eq!(vs.len() as usize, hs.len());
            prop_assert_eq!(vs.contains(v), hs.contains(&i));
        }
        let listed: HashSet<usize> = vs.iter().map(|v| v.index()).collect();
        prop_assert_eq!(listed, hs);
    }

    /// Date construction is monotone in (y, m, d) — the ADT ordering the
    /// Figure 1 query relies on.
    #[test]
    fn date_is_monotone(
        y1 in 1900i32..2100, m1 in 1u32..=12, d1 in 1u32..=31,
        y2 in 1900i32..2100, m2 in 1u32..=12, d2 in 1u32..=31,
    ) {
        use open_oodb::object::Date;
        let a = Date::from_ymd(y1, m1, d1);
        let b = Date::from_ymd(y2, m2, d2);
        let lex = (y1, m1, d1).cmp(&(y2, m2, d2));
        prop_assert_eq!(a.cmp(&b), lex);
    }
}

/// Mutation test 1 — dropped `Mat` link: splicing the `Mat d` node out of
/// `Select(Mat d (Get e))` leaves the predicate's `d` unbound, and the
/// linter must pinpoint the root `Select` (path `root`), not merely fail.
#[test]
fn linter_pinpoints_dropped_mat_link() {
    use oodb_core::verify::{self, checks};
    let (_, m) = db();
    let (env, plan, ..) = build_query(m, &[Cond::DeptFloorEq(3)]);
    assert!(verify::lint_logical(&env, &plan).is_empty());
    // Splice: Select directly over Get, Mat gone.
    let broken = LogicalPlan {
        op: plan.op.clone(),
        children: vec![plan.children[0].children[0].clone()],
    };
    let diags = verify::lint_logical(&env, &broken);
    let hit = diags
        .iter()
        .find(|d| d.check == checks::UNBOUND_VAR)
        .unwrap_or_else(|| panic!("expected unbound-var, got {diags:?}"));
    assert_eq!(hit.path, Vec::<usize>::new(), "culprit is the root Select");
    assert_eq!(hit.op, "Select");
    assert_eq!(hit.path_string(), "root");
}

/// Mutation test 2 — swapped binding: rebinding the `Mat` to the `Get`
/// variable (whose origin is a scan, not a link) must be flagged at the
/// Mat's exact position with an origin mismatch.
#[test]
fn linter_pinpoints_swapped_binding() {
    use oodb_core::verify::{self, checks};
    let (_, m) = db();
    let (env, plan, _, e_var) = build_query(m, &[Cond::DeptFloorEq(3)]);
    let mut broken = plan.clone();
    broken.children[0].op = oodb_algebra::LogicalOp::Mat { out: e_var };
    let diags = verify::lint_logical(&env, &broken);
    let hit = diags
        .iter()
        .find(|d| d.check == checks::ORIGIN_MISMATCH)
        .unwrap_or_else(|| panic!("expected origin-mismatch, got {diags:?}"));
    assert_eq!(hit.path, vec![0], "culprit is the Mat under the Select");
    assert_eq!(hit.path_string(), "root.0");
    // Rebinding an already-bound variable is also a duplicate binding.
    assert!(diags
        .iter()
        .any(|d| d.check == checks::DUPLICATE_BINDING && d.path == vec![0]));
}

/// Mutation test 3 — removed enforcer: stripping the assembly out of
/// Query 3's winning plan (Alg-Project over Assembly over index scan)
/// leaves the projection reading an object that is never brought into
/// memory; the property checker must blame the Alg-Project at the root.
#[test]
fn property_checker_pinpoints_removed_enforcer() {
    use oodb_bench::queries;
    use oodb_core::verify::{self, checks};
    let (_, m) = db();
    let q = queries::query3(m);
    let out = OpenOodb::with_config(&q.env, OptimizerConfig::all_rules())
        .optimize(&q.plan, q.result_vars)
        .expect("query 3 plan");
    assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
    assert!(matches!(
        out.plan.children[0].op,
        oodb_algebra::PhysicalOp::Assembly { .. }
    ));
    // Strip the enforcer: project directly over the scan.
    let mut broken = out.plan.clone();
    broken.children = broken.children[0].children.clone();
    let diags = verify::check_physical_props(&q.env, &broken, oodb_algebra::PhysProps::NONE);
    let hit = diags
        .iter()
        .find(|d| d.check == checks::INPUT_NOT_IN_MEMORY)
        .unwrap_or_else(|| panic!("expected input-not-in-memory, got {diags:?}"));
    assert_eq!(hit.path, Vec::<usize>::new(), "culprit is the root project");
    assert_eq!(hit.op, "Alg-Project");
}

/// Memo invariants under exploration of a random-size join tree: the
/// number of expressions in the root group of an n-way join chain with
/// commutativity and associativity follows the known series, and
/// re-exploration is a fixpoint.
#[test]
fn memo_join_enumeration_invariants() {
    use open_oodb::volcano::toy::{toy_rules, Toy, ToyOp, ToySort};
    use open_oodb::volcano::{Optimizer, SearchConfig};

    // For n base tables, a root group under {commute, assoc} holds
    // 2 * (2^(n-1) - 1) expressions... empirically: n=2 → 2, n=3 → 6,
    // n=4 → 14 (each split of the table set into two non-empty halves,
    // ordered).
    let expected = [2usize, 6, 14];
    for (idx, n) in (2u32..=4).enumerate() {
        let model = Toy {
            cards: (0..n).map(|i| 10.0 * (i + 1) as f64).collect(),
        };
        let rules = toy_rules();
        let mut opt = Optimizer::new(&model, &rules, SearchConfig::default());
        let mut g = opt.memo.insert(&model, ToyOp::Table(0), []).0;
        for t in 1..n {
            let leaf = opt.memo.insert(&model, ToyOp::Table(t), []).0;
            g = opt.memo.insert(&model, ToyOp::Join, [g, leaf]).0;
        }
        opt.explore_all();
        assert_eq!(opt.memo.group_exprs(g).len(), expected[idx], "n = {n}");
        let before = opt.memo.expr_count();
        opt.explore_all();
        assert_eq!(opt.memo.expr_count(), before, "fixpoint must be stable");
        // And optimization still works after heavy merging.
        assert!(opt.run(g, ToySort::default()).is_some());
    }
}
