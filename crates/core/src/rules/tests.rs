//! Per-rule unit tests: each transformation rule exercised in isolation
//! against a minimal query, and each implementation rule's feasibility
//! conditions probed directly.

use crate::config::OptimizerConfig;
use crate::cost::CostParams;
use crate::model::OodbModel;
use crate::optimizer::seed;
use crate::rules::{enforce, implement, transform};
use oodb_algebra::display::render_logical;
use oodb_algebra::{
    LogicalOp, LogicalPlan, Operand, PhysProps, QueryBuilder, QueryEnv, SetOpKind, VarSet,
};
use oodb_object::paper::{paper_model, PaperModel};
use oodb_object::Value;
use volcano::{Enforcer, ImplRule, Memo, Optimizer, RuleSet, SearchConfig, TransformRule};

fn model() -> PaperModel {
    paper_model()
}

/// Explores a plan with exactly the given transformation rules and
/// returns the rendered alternatives of the root group.
fn alternatives<'e>(
    env: &'e QueryEnv,
    plan: &LogicalPlan,
    transforms: Vec<Box<dyn TransformRule<OodbModel<'e>>>>,
) -> Vec<String> {
    let m = OodbModel::new(env, CostParams::default(), OptimizerConfig::all_rules());
    let rules = RuleSet {
        transforms,
        impls: vec![],
        enforcers: vec![],
    };
    let mut opt = Optimizer::new(&m, &rules, SearchConfig::default());
    let root = seed(&mut opt.memo, &m, plan).expect("at most two inputs");
    opt.explore_all();
    let memo = &opt.memo;
    memo.group_exprs(root)
        .iter()
        .map(|&e| {
            let tree = extract(memo, e);
            render_logical(env, &tree)
        })
        .collect()
}

fn extract(memo: &Memo<OodbModel<'_>>, e: volcano::ExprId) -> LogicalPlan {
    let expr = memo.expr(e);
    LogicalPlan {
        op: expr.op.clone(),
        children: expr
            .children
            .iter()
            .map(|&c| extract(memo, memo.group_exprs(c)[0]))
            .collect(),
    }
}

// ---------------------------------------------------------------------
// Transformation rules
// ---------------------------------------------------------------------

#[test]
fn select_split_pulls_each_conjunct() {
    let m = model();
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (emp, e) = qb.get(m.ids.employees, "e");
    let t1 = qb.term(
        qb.attr(e, m.ids.person_age),
        oodb_algebra::CmpOp::Ge,
        Operand::Const(Value::Int(32)),
    );
    let t2 = qb.term(
        qb.attr(e, m.ids.emp_salary),
        oodb_algebra::CmpOp::Lt,
        Operand::Const(Value::Int(90_000)),
    );
    let pred = qb.conj(vec![t1, t2]);
    let plan = qb.select(emp, pred);
    let env = qb.into_env();

    let alts = alternatives(&env, &plan, vec![Box::new(transform::SelectSplit)]);
    // Original + each conjunct pulled out.
    assert_eq!(alts.len(), 3, "{alts:#?}");
    assert!(alts
        .iter()
        .any(|a| a.starts_with("Select e.age >= 32\n") && a.contains("Select e.salary < 90000")));
    assert!(alts
        .iter()
        .any(|a| a.starts_with("Select e.salary < 90000\n") && a.contains("Select e.age >= 32")));
}

#[test]
fn select_mat_swap_is_bidirectional() {
    let m = model();
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (cities, c) = qb.get(m.ids.cities, "c");
    let (matd, _cm) = qb.mat(cities, c, m.ids.city_mayor, "cm");
    // Predicate on the BASE variable: pushable below the Mat.
    let pred = qb.eq_const(c, m.ids.city_name, Value::str("city-1"));
    let plan = qb.select(matd, pred);
    let env = qb.into_env();

    let alts = alternatives(&env, &plan, vec![Box::new(transform::SelectMatSwap)]);
    assert_eq!(alts.len(), 2, "{alts:#?}");
    assert!(alts.iter().any(|a| a.starts_with("Mat c.mayor")));
}

#[test]
fn select_on_mat_output_does_not_push() {
    let m = model();
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (cities, c) = qb.get(m.ids.cities, "c");
    let (matd, cm) = qb.mat(cities, c, m.ids.city_mayor, "cm");
    // Predicate USES the materialized component: not pushable.
    let pred = qb.eq_const(cm, m.ids.person_name, Value::str("Joe"));
    let plan = qb.select(matd, pred);
    let env = qb.into_env();

    let alts = alternatives(&env, &plan, vec![Box::new(transform::SelectMatSwap)]);
    assert_eq!(
        alts.len(),
        1,
        "must not push below its own scope: {alts:#?}"
    );
}

#[test]
fn select_unnest_swap_pushes_task_predicates() {
    let m = model();
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (tasks, t) = qb.get(m.ids.tasks, "t");
    let (unn, _mm) = qb.unnest(tasks, t, m.ids.task_team_members, "m");
    let pred = qb.eq_const(t, m.ids.task_time, Value::Int(100));
    let plan = qb.select(unn, pred);
    let env = qb.into_env();

    let alts = alternatives(&env, &plan, vec![Box::new(transform::SelectUnnestSwap)]);
    assert_eq!(alts.len(), 2);
    assert!(alts.iter().any(|a| a.starts_with("Unnest t.team_members")));
}

#[test]
fn mat_to_join_requires_a_scannable_domain() {
    let m = model();
    // e.dept → Department has an extent: rewrites.
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (emp, e) = qb.get(m.ids.employees, "e");
    let (plan, _d) = qb.mat(emp, e, m.ids.emp_dept, "d");
    let env = qb.into_env();
    let alts = alternatives(&env, &plan, vec![Box::new(transform::MatToJoin)]);
    assert_eq!(alts.len(), 2);
    assert!(alts
        .iter()
        .any(|a| a.contains("Join e.dept == d.self") && a.contains("Get extent(Department): d")));

    // d.plant → Plant has NO extent: no rewrite.
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (dept, d) = qb.get(m.ids.department_extent, "d");
    let (plan, _dp) = qb.mat(dept, d, m.ids.dept_plant, "dp");
    let env = qb.into_env();
    let alts = alternatives(&env, &plan, vec![Box::new(transform::MatToJoin)]);
    assert_eq!(alts.len(), 1, "Plant is not scannable: {alts:#?}");
}

#[test]
fn join_commute_and_assoc_enumerate_orders() {
    let m = model();
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (emp, e) = qb.get(m.ids.employees, "e");
    let (dept, d) = qb.get(m.ids.department_extent, "d");
    let (job, j) = qb.get(m.ids.job_extent, "j");
    let p1 = qb.ref_eq(e, m.ids.emp_dept, d);
    let p2 = qb.ref_eq(e, m.ids.emp_job, j);
    let join1 = qb.join(emp, dept, p1);
    let plan = qb.join(join1, job, p2);
    let env = qb.into_env();

    let only_commute = alternatives(&env, &plan, vec![Box::new(transform::JoinCommute)]);
    assert_eq!(only_commute.len(), 2, "commute alone flips the root");

    let both = alternatives(
        &env,
        &plan,
        vec![
            Box::new(transform::JoinCommute),
            Box::new(transform::JoinAssoc),
        ],
    );
    // Three-relation join space with a connected predicate set.
    assert!(
        both.len() >= 4,
        "expected several orders, got {}",
        both.len()
    );
}

#[test]
fn mat_mat_swap_respects_dependencies() {
    let m = model();
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (cities, c) = qb.get(m.ids.cities, "c");
    let (p, _cm) = qb.mat(cities, c, m.ids.city_mayor, "cm");
    let (p, cc) = qb.mat(p, c, m.ids.city_country, "cc");
    let (plan, _pres) = qb.mat(p, cc, m.ids.country_president, "pres");
    let env = qb.into_env();

    let alts = alternatives(&env, &plan, vec![Box::new(transform::MatMatSwap)]);
    // president depends on country ("'country' must be materialized before
    // 'president'"), so only the independent mayor/country and
    // mayor/president pairs commute. The chain of 3 yields 3 orderings of
    // the top operator's group.
    assert!(alts.len() >= 2, "{alts:#?}");
    for a in &alts {
        let pres_pos = a.find("Mat cc.president: pres").expect("president present");
        let country_pos = a.find("Mat c.country: cc").expect("country present");
        assert!(
            pres_pos < country_pos,
            "president must stay above country (deeper in text = lower in plan):\n{a}"
        );
    }
}

#[test]
fn select_setop_push_distributes_over_union_not_difference_right() {
    let m = model();
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (l, c) = qb.get(m.ids.cities, "c");
    // Same-scope second input (a filtered variant of the same scan).
    let big = qb.cmp_const(
        c,
        m.ids.city_population,
        oodb_algebra::CmpOp::Ge,
        Value::Int(1000),
    );
    let r = qb.select(
        LogicalPlan::leaf(LogicalOp::Get {
            coll: m.ids.cities,
            var: c,
        }),
        big,
    );
    let _ = l;
    let union = qb.set_op(
        SetOpKind::Union,
        LogicalPlan::leaf(LogicalOp::Get {
            coll: m.ids.cities,
            var: c,
        }),
        r.clone(),
    );
    let name_pred = qb.eq_const(c, m.ids.city_name, Value::str("x"));
    let plan = qb.select(union, name_pred);
    let env = qb.into_env();
    let alts = alternatives(&env, &plan, vec![Box::new(transform::SelectSetOpPush)]);
    assert_eq!(alts.len(), 2);
    assert!(alts.iter().any(|a| a.starts_with("Union")), "{alts:#?}");

    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (l2, c2) = qb.get(m.ids.cities, "c");
    let r2 = LogicalPlan::leaf(LogicalOp::Get {
        coll: m.ids.cities,
        var: c2,
    });
    let diff = qb.set_op(SetOpKind::Difference, l2, r2);
    let pred = qb.eq_const(c2, m.ids.city_name, Value::str("x"));
    let plan = qb.select(diff, pred);
    let env = qb.into_env();
    let alts = alternatives(&env, &plan, vec![Box::new(transform::SelectSetOpPush)]);
    // One rewrite only (left side); predicate must never land on the
    // subtrahend alone.
    assert_eq!(alts.len(), 2);
    for a in &alts {
        if a.starts_with("Difference") {
            // Left child line carries the Select, right child does not.
            let lines: Vec<&str> = a.lines().collect();
            assert!(lines[1].contains("Select"), "{a}");
            assert!(!lines.last().unwrap().contains("Select"), "{a}");
        }
    }
}

#[test]
fn mat_setop_push_distributes_materialization() {
    let m = model();
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (l, c) = qb.get(m.ids.cities, "c");
    let r = LogicalPlan::leaf(LogicalOp::Get {
        coll: m.ids.cities,
        var: c,
    });
    let union = qb.set_op(SetOpKind::Union, l, r);
    let (plan, _cm) = qb.mat(union, c, m.ids.city_mayor, "cm");
    let env = qb.into_env();
    let alts = alternatives(&env, &plan, vec![Box::new(transform::MatSetOpPush)]);
    assert_eq!(alts.len(), 2);
    assert!(
        alts.iter()
            .any(|a| { a.starts_with("Union") && a.matches("Mat c.mayor").count() == 2 }),
        "{alts:#?}"
    );
}

// ---------------------------------------------------------------------
// Implementation rules: feasibility conditions
// ---------------------------------------------------------------------

fn probe_impl<'e>(
    env: &'e QueryEnv,
    plan: &LogicalPlan,
    rule: &dyn ImplRule<OodbModel<'e>>,
    required: PhysProps,
) -> usize {
    let m = OodbModel::new(env, CostParams::default(), OptimizerConfig::all_rules());
    let rules = RuleSet::new();
    let mut opt = Optimizer::new(&m, &rules, SearchConfig::default());
    let root = seed(&mut opt.memo, &m, plan).expect("at most two inputs");
    let memo = &opt.memo;
    let e = memo.group_exprs(root)[0];
    let expr_clone = {
        let ex = memo.expr(e);
        volcano::Expr {
            op: ex.op.clone(),
            children: ex.children,
            group: ex.group,
        }
    };
    let mut out = Vec::new();
    rule.implementations(&m, memo, &expr_clone, &required, &mut out);
    out.len()
}

#[test]
fn collapse_rule_feasibility_conditions() {
    let m = model();
    let q2 = |qb: &mut QueryBuilder| {
        let (cities, c) = qb.get(m.ids.cities, "c");
        let (matd, cm) = qb.mat(cities, c, m.ids.city_mayor, "cm");
        let pred = qb.eq_const(cm, m.ids.person_name, Value::str("Joe"));
        (qb.select(matd, pred), c)
    };

    // With the path index present: one candidate.
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (plan, _c) = q2(&mut qb);
    let env = qb.into_env();
    assert_eq!(
        probe_impl(
            &env,
            &plan,
            &implement::CollapseToIndexScanImpl,
            PhysProps::NONE
        ),
        1
    );

    // Index removed: no candidate.
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.with_only_indexes(&[]));
    let (plan, _c) = q2(&mut qb);
    let env = qb.into_env();
    assert_eq!(
        probe_impl(
            &env,
            &plan,
            &implement::CollapseToIndexScanImpl,
            PhysProps::NONE
        ),
        0
    );

    // Range predicate: served by a B-tree range sweep (our extension
    // beyond the paper's equality-only rule).
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (cities, c) = qb.get(m.ids.cities, "c");
    let (matd, cm) = qb.mat(cities, c, m.ids.city_mayor, "cm");
    let pred = qb.cmp_const(
        cm,
        m.ids.person_name,
        oodb_algebra::CmpOp::Ge,
        Value::str("J"),
    );
    let plan = qb.select(matd, pred);
    let env = qb.into_env();
    assert_eq!(
        probe_impl(
            &env,
            &plan,
            &implement::CollapseToIndexScanImpl,
            PhysProps::NONE
        ),
        1
    );

    // Non-constant comparison: no index can answer it.
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (cities, c) = qb.get(m.ids.cities, "c");
    let (matd, cm) = qb.mat(cities, c, m.ids.city_mayor, "cm");
    let pred = qb.eq_attr(cm, m.ids.person_name, c, m.ids.city_name);
    let plan = qb.select(matd, pred);
    let env = qb.into_env();
    assert_eq!(
        probe_impl(
            &env,
            &plan,
            &implement::CollapseToIndexScanImpl,
            PhysProps::NONE
        ),
        0
    );
}

#[test]
fn hash_join_is_directional_on_reference_joins() {
    let m = model();
    // Join(Employees, Get(Department)) with ref-eq: target d on the RIGHT —
    // infeasible for the directional hash join.
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (emp, e) = qb.get(m.ids.employees, "e");
    let (dept, d) = qb.get(m.ids.department_extent, "d");
    let pred = qb.ref_eq(e, m.ids.emp_dept, d);
    let wrong = qb.join(emp.clone(), dept.clone(), pred);
    let right = qb.join(dept, emp, pred);
    let env = qb.into_env();
    assert_eq!(
        probe_impl(
            &env,
            &wrong,
            &implement::HybridHashJoinImpl,
            PhysProps::NONE
        ),
        0,
        "referenced side must be on the left"
    );
    assert_eq!(
        probe_impl(
            &env,
            &right,
            &implement::HybridHashJoinImpl,
            PhysProps::NONE
        ),
        1
    );
    // Pointer join wants the opposite orientation.
    assert_eq!(
        probe_impl(&env, &wrong, &implement::PointerJoinImpl, PhysProps::NONE),
        1
    );
    assert_eq!(
        probe_impl(&env, &right, &implement::PointerJoinImpl, PhysProps::NONE),
        0
    );
}

#[test]
fn assembly_enforcer_only_offers_materializable_variables() {
    let m = model();
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (cities, c) = qb.get(m.ids.cities, "c");
    let (plan, cm) = qb.mat(cities, c, m.ids.city_mayor, "cm");
    let env = qb.into_env();
    let om = OodbModel::new(&env, CostParams::default(), OptimizerConfig::all_rules());
    let rules = RuleSet::new();
    let mut opt = Optimizer::new(&om, &rules, SearchConfig::default());
    let root = seed(&mut opt.memo, &om, &plan).expect("at most two inputs");

    let enf = enforce::AssemblyEnforcer;
    // Requiring the Mat output: enforceable.
    let mut cands = Vec::new();
    enf.enforce(
        &om,
        &opt.memo,
        root,
        &PhysProps::in_memory(VarSet::single(cm)),
        &mut cands,
    );
    assert_eq!(cands.len(), 1);
    // Requiring only the scanned base: scans deliver it, enforcers don't.
    let mut cands = Vec::new();
    enf.enforce(
        &om,
        &opt.memo,
        root,
        &PhysProps::in_memory(VarSet::single(c)),
        &mut cands,
    );
    assert!(cands.is_empty());
}
