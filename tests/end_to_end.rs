//! End-to-end integration: ZQL text → parse → simplify → optimize →
//! execute against the generated store, with results checked against an
//! independent oracle, across competing rule configurations.

use oodb_core::config::rule_names as rn;
use oodb_core::OodbModel;
use open_oodb::prelude::*;
use open_oodb::zql;
use std::collections::HashSet;

fn db() -> (Store, open_oodb::object::paper::PaperModel) {
    generate_paper_db(GenConfig {
        scale_div: 20,
        ..Default::default()
    })
}

fn run(
    store: &Store,
    model: &open_oodb::object::paper::PaperModel,
    src: &str,
    config: OptimizerConfig,
) -> (usize, Vec<Vec<Value>>) {
    let q = zql::compile(src, &model.schema, &model.catalog).expect("compiles");
    let out = OpenOodb::with_config(&q.env, config)
        .optimize(&q.plan, q.result_vars)
        .expect("plan");
    let (result, _) = execute(store, &q.env, &out.plan);
    match result {
        oodb_exec::ExecResult::Rows(rows) => (rows.len(), rows),
        oodb_exec::ExecResult::Tuples(t) => (t.len(), vec![]),
    }
}

/// Query 2 executed through every plan family must return exactly the
/// cities whose mayor is named Joe — verified against direct traversal.
#[test]
fn query2_all_plans_agree_with_oracle() {
    let (store, model) = db();
    let oracle = store
        .members(model.ids.cities)
        .iter()
        .filter(|&&c| {
            store.try_eval_path(c, &[model.ids.city_mayor], model.ids.person_name)
                == Ok(Value::str("Joe"))
        })
        .count();

    let src = r#"SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe""#;
    let mut warm = OptimizerConfig::without(&[rn::COLLAPSE_TO_INDEX_SCAN]);
    warm.disabled_rules.remove(rn::WARM_ASSEMBLY);
    for config in [
        OptimizerConfig::all_rules(),
        OptimizerConfig::without(&[rn::COLLAPSE_TO_INDEX_SCAN]),
        OptimizerConfig::without(&[rn::COLLAPSE_TO_INDEX_SCAN, rn::MAT_TO_JOIN]),
        OptimizerConfig::without(&[rn::POINTER_JOIN]),
        warm,
    ] {
        let (n, _) = run(&store, &model, src, config.clone());
        assert_eq!(n, oracle, "config {:?}", config.disabled_rules);
    }
}

/// The Figure 1 query end-to-end: projection rows match a hand-rolled
/// nested-loop oracle.
#[test]
fn figure1_query_matches_oracle() {
    let (store, model) = db();
    let src = r#"SELECT Newobject( e.name(), d.name() )
FROM Employee e IN Employees, Department d IN Department
WHERE d.floor() == 3 && e.age() >= 32 && e.last_raise() >= Date(1992,1,1)
  && e.dept() == d ;"#;

    let raise_cutoff = Value::Date(open_oodb::object::Date::from_ymd(1992, 1, 1));
    let mut oracle: Vec<(Value, Value)> = Vec::new();
    for &e in store.members(model.ids.employees) {
        let d = store
            .read_field(e, model.ids.emp_dept)
            .as_ref_oid()
            .unwrap();
        let age_ok = store.read_field(e, model.ids.person_age).as_int().unwrap() >= 32;
        let floor_ok = store.read_field(d, model.ids.dept_floor) == &Value::Int(3);
        let raise_ok = store
            .read_field(e, model.ids.emp_last_raise)
            .partial_cmp_val(&raise_cutoff)
            .is_some_and(|o| o != std::cmp::Ordering::Less);
        if age_ok && floor_ok && raise_ok {
            oracle.push((
                store.read_field(e, model.ids.person_name).clone(),
                store.read_field(d, model.ids.dept_name).clone(),
            ));
        }
    }

    let (n, rows) = run(&store, &model, src, OptimizerConfig::all_rules());
    assert_eq!(n, oracle.len());
    let got: HashSet<(String, String)> = rows
        .iter()
        .map(|r| (r[0].to_string(), r[1].to_string()))
        .collect();
    let want: HashSet<(String, String)> = oracle
        .iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
    assert_eq!(got, want);
}

/// Query 4 (EXISTS form): each reported task really has time 100 and a
/// Fred on the team; the count matches direct evaluation, for both the
/// cost-based and greedy plans.
#[test]
fn query4_exists_agrees_with_oracle_and_greedy() {
    let (store, model) = db();
    let oracle = store
        .members(model.ids.tasks)
        .iter()
        .filter(|&&t| {
            if store.read_field(t, model.ids.task_time) != &Value::Int(100) {
                return false;
            }
            store
                .read_field(t, model.ids.task_team_members)
                .as_ref_set()
                .unwrap()
                .iter()
                .any(|&m| store.read_field(m, model.ids.person_name) == &Value::str("Fred"))
        })
        .count();

    let src = r#"SELECT t FROM Task t IN Tasks
WHERE t.time() == 100
  && EXISTS (SELECT m FROM m IN t.team_members() WHERE m.name() == "Fred")"#;
    let q = zql::compile(src, &model.schema, &model.catalog).unwrap();
    let out = OpenOodb::with_config(&q.env, OptimizerConfig::all_rules())
        .optimize(&q.plan, q.result_vars)
        .unwrap();
    let (result, _) = execute(&store, &q.env, &out.plan);
    // The unnest-based translation yields one tuple per matching member;
    // distinct tasks must equal the oracle ("EXISTS via unnest" caveat).
    let t_var = q
        .env
        .scopes
        .iter()
        .find(|(_, v)| v.name == "t")
        .map(|(id, _)| id)
        .unwrap();
    let distinct: HashSet<_> = result.tuples().iter().map(|t| t.get(t_var)).collect();
    assert_eq!(distinct.len(), oracle);

    let greedy = greedy_plan(
        &OodbModel::new(&q.env, CostParams::default(), OptimizerConfig::default()),
        &q.plan,
    )
    .unwrap();
    let (gres, _) = execute(&store, &q.env, &greedy);
    let gdistinct: HashSet<_> = gres.tuples().iter().map(|t| t.get(t_var)).collect();
    assert_eq!(gdistinct, distinct, "greedy and optimal must agree");
}

/// Simulated I/O agrees *ordinally* with the optimizer's preference on
/// Query 2: the plan the optimizer rejects costs more to run.
#[test]
fn simulated_execution_confirms_preference() {
    let (store, model) = db();
    let src = r#"SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe""#;
    let io_of = |config: OptimizerConfig| {
        let q = zql::compile(src, &model.schema, &model.catalog).unwrap();
        let out = OpenOodb::with_config(&q.env, config)
            .optimize(&q.plan, q.result_vars)
            .unwrap();
        let (_, stats) = execute(&store, &q.env, &out.plan);
        (out.cost.total(), stats.disk.total_s)
    };
    let (est_fast, sim_fast) = io_of(OptimizerConfig::all_rules());
    let (est_slow, sim_slow) = io_of(OptimizerConfig::without(&[
        rn::COLLAPSE_TO_INDEX_SCAN,
        rn::MAT_TO_JOIN,
    ]));
    assert!(est_fast < est_slow);
    assert!(
        sim_fast < sim_slow,
        "simulated I/O must agree: {sim_fast} vs {sim_slow}"
    );
}

/// Projection through a path (Query 3 flavour) delivers correct values.
#[test]
fn query3_projected_values_are_real() {
    let (store, model) = db();
    let src = r#"SELECT Newobject(c.mayor().age(), c.name())
FROM City c IN Cities WHERE c.mayor().name() == "Joe""#;
    let q = zql::compile(src, &model.schema, &model.catalog).unwrap();
    let out = OpenOodb::with_config(&q.env, OptimizerConfig::all_rules())
        .optimize(&q.plan, q.result_vars)
        .unwrap();
    let (result, _) = execute(&store, &q.env, &out.plan);
    let oodb_exec::ExecResult::Rows(rows) = result else {
        panic!("projection must yield rows");
    };
    for row in &rows {
        let age = row[0].as_int().expect("age projected");
        assert!((18..90).contains(&age), "generated ages are 18..90");
        assert!(row[1].as_str().unwrap().starts_with("city-"));
    }
    // And the rows correspond exactly to the Joe-mayored cities.
    let oracle = store
        .members(model.ids.cities)
        .iter()
        .filter(|&&c| {
            store.try_eval_path(c, &[model.ids.city_mayor], model.ids.person_name)
                == Ok(Value::str("Joe"))
        })
        .count();
    assert_eq!(rows.len(), oracle);
}

/// Set operations through the executor: cities with Joe mayors ∪/∩/\
/// big cities behave like real set algebra.
#[test]
fn set_operations_end_to_end() {
    use oodb_algebra::{CmpOp, SetOpKind};
    let (store, model) = db();
    let mut qb = QueryBuilder::new(model.schema.clone(), model.catalog.clone());
    let (_, c) = qb.get(model.ids.cities, "c");
    let big = qb.cmp_const(
        c,
        model.ids.city_population,
        CmpOp::Ge,
        Value::Int(1_000_000),
    );
    let small = qb.cmp_const(
        c,
        model.ids.city_population,
        CmpOp::Lt,
        Value::Int(1_000_000),
    );
    let env = qb.into_env();

    let scan = || oodb_algebra::PhysicalPlan {
        op: PhysicalOp::FileScan {
            coll: model.ids.cities,
            var: c,
        },
        children: vec![],
        est: Default::default(),
    };
    let filter = |pred| oodb_algebra::PhysicalPlan {
        op: PhysicalOp::Filter { pred },
        children: vec![scan()],
        est: Default::default(),
    };
    let setop = |kind, l, r| oodb_algebra::PhysicalPlan {
        op: PhysicalOp::HashSetOp { kind },
        children: vec![l, r],
        est: Default::default(),
    };

    let total = store.members(model.ids.cities).len();
    let (u, _) = execute(
        &store,
        &env,
        &setop(SetOpKind::Union, filter(big), filter(small)),
    );
    assert_eq!(u.len(), total, "big ∪ small = all");
    let (i, _) = execute(
        &store,
        &env,
        &setop(SetOpKind::Intersect, filter(big), filter(small)),
    );
    assert_eq!(i.len(), 0, "big ∩ small = ∅");
    let (d, _) = execute(
        &store,
        &env,
        &setop(SetOpKind::Difference, scan(), filter(big)),
    );
    let (b, _) = execute(&store, &env, &filter(big));
    assert_eq!(d.len() + b.len(), total);
}

/// The sort-order extension end-to-end: ORDER BY in ZQL, a Sort enforcer
/// or ordered index sweep in the plan, and genuinely ordered results.
#[test]
fn order_by_delivers_sorted_results() {
    use oodb_algebra::SortSpec;
    let (store, model) = db();

    // No index on population: the Sort enforcer must appear.
    let src = r#"SELECT c FROM City c IN Cities
WHERE c.population() >= 1000 ORDER BY c.population()"#;
    let q = zql::compile(src, &model.schema, &model.catalog).unwrap();
    assert_eq!(
        q.order,
        Some(SortSpec {
            var: q.env.scopes.iter().find(|(_, v)| v.name == "c").unwrap().0,
            field: model.ids.city_population,
        })
    );
    let out = OpenOodb::with_config(&q.env, OptimizerConfig::all_rules())
        .optimize_ordered(&q.plan, q.result_vars, q.order)
        .expect("ordered plan");
    assert!(
        out.plan
            .contains_op(&|op| matches!(op, PhysicalOp::Sort { .. })),
        "no population index exists, so a sort enforcer is required:\n{}",
        render_physical(&q.env, &out.plan)
    );
    let (result, _) = execute(&store, &q.env, &out.plan);
    let c = q.env.scopes.iter().find(|(_, v)| v.name == "c").unwrap().0;
    let pops: Vec<i64> = result
        .tuples()
        .iter()
        .map(|t| {
            store
                .read_field(t.get(c), model.ids.city_population)
                .as_int()
                .unwrap()
        })
        .collect();
    assert!(
        pops.windows(2).all(|w| w[0] <= w[1]),
        "results must be sorted"
    );
    assert!(!pops.is_empty());
}

/// When an index covers the ordering attribute, the ordered index sweep
/// competes with sort-after-scan and the optimizer picks by cost.
#[test]
fn ordered_index_scan_is_considered() {
    use oodb_algebra::SortSpec;
    let (store, model) = db();
    // Order tasks by time — the Tasks_time index covers it.
    let mut qb = QueryBuilder::new(model.schema.clone(), model.catalog.clone());
    let (plan, t) = qb.get(model.ids.tasks, "t");
    let env = qb.into_env();
    let order = Some(SortSpec {
        var: t,
        field: model.ids.task_time,
    });
    let out = OpenOodb::with_config(&env, OptimizerConfig::all_rules())
        .optimize_ordered(&plan, VarSet::single(t), order)
        .expect("ordered plan");
    // Either alternative is legal; whichever wins, execution is ordered.
    let (result, _) = execute(&store, &env, &out.plan);
    let times: Vec<i64> = result
        .tuples()
        .iter()
        .map(|tp| {
            store
                .read_field(tp.get(t), model.ids.task_time)
                .as_int()
                .unwrap()
        })
        .collect();
    assert_eq!(times.len(), store.members(model.ids.tasks).len());
    assert!(times.windows(2).all(|w| w[0] <= w[1]));

    // And the unordered goal must never pay for ordering.
    let unordered = OpenOodb::with_config(&env, OptimizerConfig::all_rules())
        .optimize(&plan, VarSet::single(t))
        .unwrap();
    assert!(unordered.cost.total() <= out.cost.total());
}

/// Range predicates through the B-tree (extension): a hand-built range
/// index scan returns exactly the oracle's rows, for every operator.
#[test]
fn range_index_scans_match_oracle() {
    use oodb_algebra::CmpOp;
    let (store, model) = db();
    let mut qb = QueryBuilder::new(model.schema.clone(), model.catalog.clone());
    let (_, t) = qb.get(model.ids.tasks, "t");
    let preds: Vec<(CmpOp, oodb_algebra::PredId)> = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ]
    .into_iter()
    .map(|op| {
        (
            op,
            qb.cmp_const(t, model.ids.task_time, op, Value::Int(250)),
        )
    })
    .collect();
    let env = qb.into_env();

    for (op, pred) in preds {
        let plan = oodb_algebra::PhysicalPlan {
            op: PhysicalOp::IndexScan {
                index: model.ids.idx_tasks_time,
                var: t,
                pred,
            },
            children: vec![],
            est: Default::default(),
        };
        let (result, _) = execute(&store, &env, &plan);
        let oracle = store
            .members(model.ids.tasks)
            .iter()
            .filter(|&&o| {
                store
                    .read_field(o, model.ids.task_time)
                    .partial_cmp_val(&Value::Int(250))
                    .is_some_and(|ord| op.test(ord))
            })
            .count();
        assert_eq!(result.len(), oracle, "operator {op:?}");
    }
}

/// With collected histograms, a highly selective range predicate can pull
/// the optimizer toward an index plan, and estimates tighten either way:
/// over a nine-predicate battery (ranges, equalities, paths) the mean
/// error factor against the counted truth falls below the 1993
/// heuristics' (index distinct counts, 10% default, 1/3 for ranges).
/// `-- --nocapture` prints the table.
#[test]
fn histograms_change_range_estimates() {
    use oodb_algebra::CmpOp::{self, Eq, Ge, Le, Lt};
    use oodb_core::model::OodbModel;
    use open_oodb::object::{CollectionId, FieldId};
    let (store, model) = db();
    let ids = &model.ids;
    let (emp, city, task, dept) = (ids.employees, ids.cities, ids.tasks, ids.department_extent);
    let with_stats = store.collect_statistics(
        &[
            (emp, vec![], ids.person_age),
            (emp, vec![], ids.emp_salary),
            (city, vec![], ids.city_population),
            (dept, vec![ids.dept_plant], ids.plant_location),
        ],
        32,
    );
    type Case = (
        &'static str,
        CollectionId,
        Vec<FieldId>,
        FieldId,
        CmpOp,
        Value,
    );
    let selectivity = |catalog: &Catalog, (_, coll, path, key, op, constant): &Case| {
        let mut qb = QueryBuilder::new(model.schema.clone(), catalog.clone());
        let (mut plan, mut var) = qb.get(*coll, "x");
        for &link in path {
            (plan, var) = qb.mat(plan, var, link, "m");
        }
        let pred = qb.cmp_const(var, *key, *op, constant.clone());
        let env = qb.into_env();
        OodbModel::new(&env, CostParams::default(), OptimizerConfig::all_rules()).selectivity(pred)
    };

    let t_le_20: Case = ("", task, vec![], ids.task_time, Le, Value::Int(20));
    let naive = selectivity(&model.catalog, &t_le_20);
    assert!((naive - 1.0 / 3.0).abs() < 1e-9, "1993 default for ranges");
    let refined = selectivity(&with_stats, &t_le_20);
    // True selectivity: times are {10,...,500}, so time<=20 covers 2/50.
    assert!(refined < 0.15, "histogram must see the skew: {refined}");

    #[rustfmt::skip]
    let battery: [Case; 9] = [
        ("e.age >= 40", emp, vec![], ids.person_age, Ge, Value::Int(40)),
        ("e.age >= 65", emp, vec![], ids.person_age, Ge, Value::Int(65)),
        ("e.salary < 40000", emp, vec![], ids.emp_salary, Lt, Value::Int(40_000)),
        ("e.name == Fred", emp, vec![], ids.person_name, Eq, Value::str("Fred")),
        ("t.time == 100", task, vec![], ids.task_time, Eq, Value::Int(100)),
        ("t.time <= 100", task, vec![], ids.task_time, Le, Value::Int(100)),
        ("c.mayor.name == Joe", city, vec![ids.city_mayor], ids.person_name, Eq, Value::str("Joe")),
        ("d.plant.location == Dallas", dept, vec![ids.dept_plant], ids.plant_location, Eq, Value::str("Dallas")),
        ("c.population >= 2500000", city, vec![], ids.city_population, Ge, Value::Int(2_500_000)),
    ];
    let (mut heuristic, mut histogram) = (0.0, 0.0);
    for case in &battery {
        let (label, coll, path, key, op, constant) = case;
        let members = store.members(*coll);
        let matched = members
            .iter()
            .filter(|&&o| {
                let v = store.try_eval_path(o, path, *key).unwrap();
                v.partial_cmp_val(constant).is_some_and(|ord| op.test(ord))
            })
            .count();
        // A predicate matching nothing is scored as matching one row: an
        // estimator cannot be asked to tell zero from one.
        let truth = matched.max(1) as f64 / members.len() as f64;
        let err = |est: f64| (est / truth).max(truth / est);
        let naive = selectivity(&model.catalog, case);
        let hist = selectivity(&with_stats, case);
        heuristic += err(naive) / battery.len() as f64;
        histogram += err(hist) / battery.len() as f64;
        eprintln!(
            "{label:>26}  true {truth:.4}  1993 {naive:.4} ({:.1}x)  histogram {hist:.4} ({:.1}x)",
            err(naive),
            err(hist)
        );
    }
    eprintln!("mean error factor: 1993 heuristics {heuristic:.2}x, histograms {histogram:.2}x");
    assert!(
        histogram < heuristic,
        "histograms ({histogram:.2}x) must estimate better than the 1993 heuristics ({heuristic:.2}x)"
    );
}

/// Merge join (sort-order extension): a value equi-join between two
/// scans — namesake employees across the Employees set and the Job
/// extent — optimizes to EITHER hash or merge join by cost; forcing merge
/// join gives the same result set as hash join, verified by execution.
#[test]
fn merge_join_agrees_with_hash_join() {
    use oodb_core::config::rule_names as rn;
    let (store, model) = db();
    // Join on name: task titles never match, so use employee/person name
    // worlds: employees vs employees (self-join on names is huge);
    // keep it tractable: cities vs capitals? Capitals set is tiny (8 at
    // this scale). Join cities and capitals on country: value join on
    // the name attribute of their countries is convoluted — simplest
    // honest value join: Task.title == Task.title self-join is identity.
    // Use Cities × Capitals on population (ints, sparse matches).
    let mut qb = QueryBuilder::new(model.schema.clone(), model.catalog.clone());
    let (cities, c) = qb.get(model.ids.cities, "c");
    let (caps, k) = qb.get(model.ids.capitals, "k");
    let pred = qb.eq_attr(c, model.ids.city_population, k, model.ids.city_population);
    let plan = qb.join(cities, caps, pred);
    let env = qb.into_env();
    let result_vars = VarSet::from_iter([c, k]);

    // Hash-join-only and merge-join-only configurations.
    let hash_only = OpenOodb::with_config(&env, OptimizerConfig::without(&[rn::MERGE_JOIN]))
        .optimize(&plan, result_vars)
        .expect("hash plan");
    let merge_only = OpenOodb::with_config(
        &env,
        OptimizerConfig::without(&[rn::HYBRID_HASH_JOIN, rn::POINTER_JOIN]),
    )
    .optimize(&plan, result_vars)
    .expect("merge plan");
    assert!(hash_only
        .plan
        .contains_op(&|op| matches!(op, PhysicalOp::HybridHashJoin { .. })));
    assert!(
        merge_only
            .plan
            .contains_op(&|op| matches!(op, PhysicalOp::MergeJoin { .. })),
        "{}",
        render_physical(&env, &merge_only.plan)
    );
    // Merge join's inputs must be sorted (Sort enforcers beneath).
    assert!(merge_only
        .plan
        .contains_op(&|op| matches!(op, PhysicalOp::Sort { .. })));

    let (r_hash, _) = execute(&store, &env, &hash_only.plan);
    let (r_merge, _) = execute(&store, &env, &merge_only.plan);
    let set_h: std::collections::HashSet<_> = r_hash
        .tuples()
        .iter()
        .map(|t| (t.get(c), t.get(k)))
        .collect();
    let set_m: std::collections::HashSet<_> = r_merge
        .tuples()
        .iter()
        .map(|t| (t.get(c), t.get(k)))
        .collect();
    assert_eq!(set_h, set_m, "join algorithms must agree");
    // Sanity: both match the nested-loop oracle.
    let oracle = store
        .members(model.ids.cities)
        .iter()
        .flat_map(|&cc| {
            store
                .members(model.ids.capitals)
                .iter()
                .map(move |&kk| (cc, kk))
        })
        .filter(|&(cc, kk)| {
            store.read_field(cc, model.ids.city_population)
                == store.read_field(kk, model.ids.city_population)
        })
        .count();
    assert_eq!(set_h.len(), oracle);
}
