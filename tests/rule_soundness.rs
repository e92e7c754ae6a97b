//! The rule-soundness harness: every transformation rule, applied to the
//! expressions exploration actually generates over a corpus of seed
//! queries, must produce rewrites that
//!
//! 1. still pass the static linter ([`oodb_core::verify`]),
//! 2. bind exactly the same output variables as the original, and
//! 3. are denotationally equal — optimizing and executing the original
//!    and the rewrite on a small seeded store yields the same result set.
//!
//! This is the machine check behind the paper's extensibility claim: a
//! rule added to the generated optimizer is independently auditable for
//! soundness, not just for whether its plans happen to win.
//!
//! The same corpus checks each rule's declared signature, which the engine
//! dispatches on: a rule emits nothing off the roots it consumes, emits
//! only roots it produces, and, when it reads no input group, emits the
//! same rewrites however its input groups grow.

use oodb_algebra::{LogicalOp, LogicalPlan, PhysProps, QueryEnv, SetOpKind, VarSet};
use oodb_bench::queries;
use oodb_core::optimizer::{extract_anchored, seed};
use oodb_core::rules::rule_set;
use oodb_core::verify;
use oodb_core::{CostParams, OodbModel, OpenOodb, OptimizerConfig};
use oodb_exec::{execute, ExecResult};
use oodb_object::paper::PaperModel;
use oodb_object::Value;
use oodb_storage::{generate_paper_db, GenConfig, Store};
use std::collections::{BTreeMap, HashSet};
use std::sync::OnceLock;
use volcano::{Memo, OptModel, Optimizer, RewriteNode, RewritePart, Rewrites, SearchConfig};

fn db() -> &'static (Store, PaperModel) {
    static DB: OnceLock<(Store, PaperModel)> = OnceLock::new();
    DB.get_or_init(|| {
        generate_paper_db(GenConfig {
            scale_div: 100,
            ..Default::default()
        })
    })
}

/// Per-rule cap on (seed, expression) samples — rules like join
/// commutativity apply everywhere; a handful of distinct sites each is
/// plenty to falsify an unsound rewrite.
const SAMPLES_PER_RULE_PER_SEED: usize = 4;

/// A set-operation composite no paper query exercises: Mat over Select
/// over Union of two selections of the same scan — the shapes the
/// `select-setop-push` and `mat-setop-push` rules rewrite.
fn setop_seed(m: &PaperModel) -> queries::PaperQuery {
    use oodb_algebra::QueryBuilder;
    let ids = &m.ids;
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (cities, c) = qb.get(ids.cities, "c");
    let p_small = qb.cmp_const(
        c,
        ids.city_population,
        oodb_algebra::CmpOp::Lt,
        Value::Int(200_000),
    );
    let p_big = qb.cmp_const(
        c,
        ids.city_population,
        oodb_algebra::CmpOp::Ge,
        Value::Int(5_000_000),
    );
    let left = qb.select(cities.clone(), p_small);
    let right = qb.select(cities, p_big);
    let union = qb.set_op(SetOpKind::Union, left, right);
    let p_name = qb.cmp_const(
        c,
        ids.city_name,
        oodb_algebra::CmpOp::Ne,
        Value::str("Nowhere"),
    );
    let sel = qb.select(union, p_name);
    let (plan, cm) = qb.mat(sel, c, ids.city_mayor, "cm");
    let vars = vec![("c".to_string(), c), ("cm".to_string(), cm)];
    queries::PaperQuery {
        env: qb.into_env(),
        plan,
        result_vars: VarSet::single(c),
        vars,
    }
}

/// Converts an emitted rewrite back into a logical tree, resolving
/// untouched groups through their anchor expression.
fn rewrite_to_plan(
    memo: &Memo<OodbModel<'_>>,
    rw: &Rewrites<oodb_algebra::LogicalOp>,
    node: RewriteNode,
) -> LogicalPlan {
    match rw.part(node) {
        RewritePart::Op(op, subs) => LogicalPlan {
            op: op.clone(),
            children: subs.iter().map(|&s| rewrite_to_plan(memo, rw, s)).collect(),
        },
        RewritePart::Group(g) => {
            let anchor = memo.group_exprs(*g)[0];
            extract_anchored(memo, anchor)
        }
    }
}

/// Canonical, order-insensitive rendering of an execution result over the
/// given output variables.
fn canonical_rows(env: &QueryEnv, vars: VarSet, result: &ExecResult) -> Vec<String> {
    let mut rows: Vec<String> = match result {
        ExecResult::Rows(rows) => rows
            .iter()
            .map(|r| r.iter().map(Value::to_string).collect::<Vec<_>>().join("|"))
            .collect(),
        ExecResult::Tuples(_) => result
            .tuples()
            .iter()
            .map(|t| {
                vars.iter()
                    .map(|v| match t.try_get(v) {
                        Some(oid) => format!("{}={oid:?}", env.scopes.var(v).name),
                        None => format!("{}=∅", env.scopes.var(v).name),
                    })
                    .collect::<Vec<_>>()
                    .join("|")
            })
            .collect(),
    };
    rows.sort();
    rows
}

/// Optimizes and executes a logical tree, returning its canonical result.
fn run_tree(store: &Store, env: &QueryEnv, tree: &LogicalPlan, vars: VarSet) -> Vec<String> {
    let out = OpenOodb::with_config(env, OptimizerConfig::all_rules())
        .optimize(tree, vars)
        .expect("rewritten tree must be implementable");
    assert!(
        out.diagnostics.is_empty(),
        "winning plan of a harness tree failed verification: {:?}",
        out.diagnostics
    );
    let (result, _) = execute(store, env, &out.plan);
    canonical_rows(env, vars, &result)
}

/// The seed queries both harnesses explore.
fn corpus(m: &PaperModel) -> Vec<(&'static str, queries::PaperQuery)> {
    vec![
        ("query1", queries::query1(m)),
        ("query2", queries::query2(m)),
        ("query4", queries::query4(m)),
        ("fig2", queries::fig2_query(m)),
        ("setop", setop_seed(m)),
    ]
}

#[test]
fn every_transformation_rule_is_sound_on_the_corpus() {
    let (store, m) = db();
    let seeds = corpus(m);
    let config = OptimizerConfig::all_rules();
    let rules = rule_set(&config);
    let mut samples_by_rule: BTreeMap<&'static str, usize> = BTreeMap::new();
    for t in &rules.transforms {
        samples_by_rule.insert(t.name(), 0);
    }

    for (seed_name, q) in &seeds {
        let model = OodbModel::new(&q.env, CostParams::default(), config.clone());
        let mut opt = Optimizer::new(&model, &rules, SearchConfig::default());
        let root = seed(&mut opt.memo, &model, &q.plan).expect("at most two inputs");
        opt.explore_all();
        let _ = root;
        let memo = &opt.memo;
        // Cache each original expression's result so rules sharing a site
        // don't re-execute it.
        let mut original_results: BTreeMap<usize, (VarSet, Vec<String>)> = BTreeMap::new();
        let mut seen_rewrites: HashSet<String> = HashSet::new();
        let mut rewrites = Rewrites::default();

        for e in memo.live_exprs() {
            let expr = memo.expr(e);
            let original = extract_anchored(memo, e);
            for rule in &rules.transforms {
                if samples_by_rule[rule.name()] >= SAMPLES_PER_RULE_PER_SEED * seeds.len() {
                    continue;
                }
                rewrites.clear();
                rule.apply(&model, memo, expr, &mut rewrites);
                for &rw in rewrites.emitted() {
                    let rewritten = rewrite_to_plan(memo, &rewrites, rw);
                    if rewritten == original {
                        continue;
                    }
                    let sig = format!("{}:{rewritten:?}", rule.name());
                    if !seen_rewrites.insert(sig) {
                        continue;
                    }

                    // (1) the rewrite is still well-formed;
                    let diags = verify::lint_logical(&q.env, &rewritten);
                    assert!(
                        diags.is_empty(),
                        "[{seed_name}] rule {} produced an ill-formed rewrite:\n\
                         original: {original:?}\nrewritten: {rewritten:?}\n{diags:?}",
                        rule.name()
                    );

                    // (2) it binds the same output variables;
                    let vars = verify::logical_vars(&q.env, &original);
                    let rw_vars = verify::logical_vars(&q.env, &rewritten);
                    assert_eq!(
                        vars,
                        rw_vars,
                        "[{seed_name}] rule {} changed the bound variables",
                        rule.name()
                    );

                    // (3) and it denotes the same result set.
                    let expected = original_results
                        .entry(e.index())
                        .or_insert_with(|| (vars, run_tree(store, &q.env, &original, vars)));
                    let expected = expected.1.clone();
                    let got = run_tree(store, &q.env, &rewritten, vars);
                    assert_eq!(
                        got,
                        expected,
                        "[{seed_name}] rule {} is not denotationally sound",
                        rule.name()
                    );
                    *samples_by_rule.get_mut(rule.name()).unwrap() += 1;
                }
            }
        }
    }

    // Coverage: the corpus must exercise every registered transformation
    // rule at least once — a rule nothing fires on is untested, not sound.
    let unexercised: Vec<&str> = samples_by_rule
        .iter()
        .filter(|(_, &n)| n == 0)
        .map(|(&name, _)| name)
        .collect();
    assert!(
        unexercised.is_empty(),
        "transformation rules never exercised by the corpus: {unexercised:?}\n\
         samples: {samples_by_rule:?}"
    );
}

/// Every rewrite a firing emitted, as logical trees, in order.
fn emitted_plans(memo: &Memo<OodbModel<'_>>, rw: &Rewrites<LogicalOp>) -> Vec<LogicalPlan> {
    rw.emitted()
        .iter()
        .map(|&r| rewrite_to_plan(memo, rw, r))
        .collect()
}

#[test]
fn every_rule_signature_holds_on_the_corpus() {
    let (_, m) = db();
    let seeds = corpus(m);
    let config = OptimizerConfig::all_rules();
    let rules = rule_set(&config);
    let mut compared_over_grown_inputs = 0;
    for (seed_name, q) in &seeds {
        let model = OodbModel::new(&q.env, CostParams::default(), config.clone());
        let mut opt = Optimizer::new(&model, &rules, SearchConfig::default());
        seed(&mut opt.memo, &model, &q.plan).expect("at most two inputs");
        opt.explore_all();
        let memo = &opt.memo;
        let mut rw = Rewrites::default();

        for e in memo.live_exprs() {
            let expr = memo.expr(e);
            let tag = model.tag(&expr.op);
            for rule in &rules.transforms {
                let sig = rule.signature();
                rw.clear();
                rule.apply(&model, memo, expr, &mut rw);
                // A rule fired off the roots it consumes emits nothing,
                if !sig.consumes.contains(&tag) {
                    assert!(
                        rw.emitted().is_empty(),
                        "[{seed_name}] {} emitted on a {tag}, which it does not consume",
                        rule.name()
                    );
                }
                // and each root it emits is one it produces.
                for &root in rw.emitted() {
                    let RewritePart::Op(op, _) = rw.part(root) else {
                        panic!("[{seed_name}] {} emitted a bare group", rule.name());
                    };
                    assert!(
                        sig.produces.contains(&model.tag(op)),
                        "[{seed_name}] {} emitted a {}, which it does not produce",
                        rule.name(),
                        model.tag(op)
                    );
                }
                // A rule that declares it reads no input group emits over
                // the explored groups what it emits over the same
                // expression with one member per input group.
                if !sig.reads_inputs {
                    let grown = emitted_plans(memo, &rw);
                    let mut fresh = Memo::new();
                    let root = seed(&mut fresh, &model, &extract_anchored(memo, e))
                        .expect("at most two inputs");
                    rw.clear();
                    let anchor = fresh.expr(fresh.group_exprs(root)[0]);
                    rule.apply(&model, &fresh, anchor, &mut rw);
                    assert_eq!(
                        emitted_plans(&fresh, &rw),
                        grown,
                        "[{seed_name}] {} reads its inputs but declares it does not",
                        rule.name()
                    );
                    if expr.children.iter().any(|&g| memo.group_exprs(g).len() > 1) {
                        compared_over_grown_inputs += 1;
                    }
                }
            }
            // An implementation rule proposes nothing off its roots either.
            let vars = memo.props(expr.group).vars;
            for rule in rules.impls.iter().filter(|r| !r.consumes().contains(&tag)) {
                for required in [PhysProps::NONE, PhysProps::in_memory(vars)] {
                    let mut out = Vec::new();
                    rule.implementations(&model, memo, expr, &required, &mut out);
                    assert!(
                        out.is_empty(),
                        "[{seed_name}] {} proposed a plan for a {tag}, which it does not consume",
                        rule.name()
                    );
                }
            }
        }
    }
    assert!(
        compared_over_grown_inputs > 0,
        "no input group grew under a rule that reads none: the check proved nothing"
    );
}
