//! The plan-space auditor, end to end: for each paper query the
//! enumeration oracle lists every physical plan the memo encodes, the
//! winner must be cost-minimal over that space, every estimate must sit
//! inside its sound cardinality interval, and — the part `oodb-core`
//! cannot do itself — **every enumerated plan must execute to the same
//! canonical result bytes**. Row order is plan-dependent (hash join vs
//! pointer join), so results are canonicalized to a sorted multiset
//! before the byte comparison; the queries have set semantics.
//!
//! The same runs face the cost model with the executor: each plan's
//! observed cost is rebuilt from its exact counters, the Kendall τ of
//! estimated vs observed cost is printed per query, and no plan may run
//! cheaper than the winner by more than [`MAX_WINNER_INVERSION`] — the
//! validation the paper put off "until the query plan executor becomes
//! operational". Every inversion must name the operator where the
//! estimate and the run part (a cardinality error); one that cannot is a
//! cost-model error and fails. `-- --nocapture` prints them all.
//!
//! `OODB_AUDIT_QUICK=1` (the CI audit job) shrinks the store and the
//! enumeration limits so the corpus runs in seconds.

use oodb_exec::{ExecResult, ExecStats};
use open_oodb::core::verify::walk_actual;
use open_oodb::prelude::*;
use open_oodb::volcano::EnumLimits;
use open_oodb::zql;

fn quick() -> bool {
    std::env::var("OODB_AUDIT_QUICK").is_ok_and(|v| v != "0")
}

fn limits() -> EnumLimits {
    if quick() {
        EnumLimits {
            max_groups: 128,
            max_exprs: 1024,
            max_plans: 2_000,
        }
    } else {
        EnumLimits::default()
    }
}

fn db() -> (Store, open_oodb::object::paper::PaperModel) {
    generate_paper_db(GenConfig {
        scale_div: if quick() { 200 } else { 50 },
        ..Default::default()
    })
}

/// Canonical result bytes: each row rendered, sorted as a multiset.
/// Tuples are restricted to the query's result variables — plan families
/// legitimately differ in which *auxiliary* variables they leave bound
/// (a collapsed index scan never binds the mayor variable; an assembly
/// plan does).
fn canon(result: &ExecResult, vars: VarSet) -> String {
    let mut lines: Vec<String> = match result {
        ExecResult::Rows(rows) => rows.iter().map(|r| format!("{r:?}")).collect(),
        ExecResult::Tuples(ts) => ts
            .iter()
            .map(|t| {
                let bound: Vec<String> = vars
                    .iter()
                    .map(|v| format!("v{}={:?}", v.index(), t.get(v)))
                    .collect();
                bound.join(",")
            })
            .collect(),
    };
    lines.sort();
    lines.join("\n")
}

/// How much cheaper than the winner an enumerated plan may run. Not 1.0,
/// because of one known cardinality error: Query 1's winner filters
/// `e.age >= 32 and e.last_raise >= 1992-01-01`, estimated on two 1993
/// range defaults (1/3 each) at 111 rows against 240 at 1/50, and each of
/// those rows is a probe row priced at `cpu_hash_s`. Plans that probe less
/// run up to 1.87× cheaper (1.96× at 1/10). Correcting that estimate is
/// ROADMAP item 6's first target; this constant falls with it.
const MAX_WINNER_INVERSION: f64 = 2.0;

/// What a run cost, priced the way the model prices a plan: simulated
/// disk seconds plus the executor's exact operation counts times the
/// model's CPU constants.
fn observed_cost(stats: &ExecStats) -> f64 {
    let (p, c) = (CostParams::default(), stats.counts);
    stats.disk.total_s
        + c.tuples as f64 * p.cpu_tuple_s
        + c.preds as f64 * p.cpu_pred_s
        + c.hash_ops as f64 * p.cpu_hash_s
        + c.derefs as f64 * p.cpu_deref_s
}

/// Kendall's τ over `(estimated, observed)` pairs: concordant minus
/// discordant pairs over all pairs, a pair tied on either side counting
/// for neither.
fn kendall_tau(costs: &[(f64, f64)]) -> f64 {
    let sign = |a: f64, b: f64| (a > b) as i64 - (a < b) as i64;
    let (mut score, mut pairs) = (0i64, 0i64);
    for (i, &(e1, o1)) in costs.iter().enumerate() {
        for &(e2, o2) in &costs[i + 1..] {
            score += sign(e1, e2) * sign(o1, o2);
            pairs += 1;
        }
    }
    score as f64 / pairs.max(1) as f64
}

/// The first operator, inputs before parents, whose estimated and actual
/// row counts differ by more than 2×: where the estimate and the run part.
fn divergence(env: &QueryEnv, plan: &PhysicalPlan, trace: &OpTrace) -> Option<String> {
    let nodes = walk_actual(env, plan, trace);
    let at = nodes.iter().find(|n| n.drift > 2.0)?;
    let (est, rows) = (at.plan.est.out_card, at.trace.actual_rows);
    Some(format!("{} (est {est:.0}, actual {rows})", at.trace.label))
}

/// Runs the full audit on one query: oracle assertions plus execution of
/// every enumerated plan, each checked for the winner's answer and, by
/// observed cost, against the winner. Returns the number of plans
/// exercised.
fn audit_query(src: &str, label: &str) -> usize {
    let (store, model) = db();
    let q = zql::compile(src, &model.schema, &model.catalog).expect("compiles");
    let opt = OpenOodb::with_config(&q.env, OptimizerConfig::all_rules());
    // Plain optimization first, timed, for the EXPERIMENTS.md overhead
    // table (`-- --nocapture` prints the comparison).
    let t0 = std::time::Instant::now();
    opt.optimize(&q.plan, q.result_vars).expect("feasible plan");
    let optimize = t0.elapsed();
    let t1 = std::time::Instant::now();
    let report = opt
        .audit(&q.plan, q.result_vars, None, limits())
        .expect("feasible plan");
    let audit = t1.elapsed();
    eprintln!(
        "{label}: {} plans; optimize {:?}, audit {:?} ({:.1}x)",
        report.plans_enumerated(),
        optimize,
        audit,
        audit.as_secs_f64() / optimize.as_secs_f64().max(1e-9)
    );
    assert!(
        !report.truncated,
        "{label}: plan space exceeded the audit limits — a cut oracle proves nothing"
    );
    assert!(
        report.cost_minimal,
        "{label}: winner {} beaten by an enumerated plan at {}",
        report.winner_cost, report.best_cost
    );
    assert!(
        report.interval_diags.is_empty(),
        "{label}: estimates escaped their sound intervals: {:?}",
        report.interval_diags
    );

    let (wres, wstats, wtrace) = execute_traced(&store, &q.env, &report.winner);
    let want = canon(&wres, q.result_vars);
    let winner = observed_cost(&wstats);
    let mut costs = Vec::with_capacity(report.plans.len());
    let mut cheaper = Vec::new();
    for (i, plan) in report.plans.iter().enumerate() {
        let (r, stats, trace) = execute_traced(&store, &q.env, plan);
        assert_eq!(
            canon(&r, q.result_vars),
            want,
            "{label}: plan {i} of {} diverged from the winner:\n{}",
            report.plans.len(),
            render_physical(&q.env, plan)
        );
        let observed = observed_cost(&stats);
        costs.push((plan.total_s(), observed));
        if observed < winner {
            cheaper.push((winner / observed, i, divergence(&q.env, plan, &trace)));
        }
    }
    eprintln!(
        "{label}: Kendall tau(estimated, observed) {:.2}; {} of {} plans ran cheaper than \
         the winner (observed {winner:.3}s), whose estimate parts at {}",
        kendall_tau(&costs),
        cheaper.len(),
        costs.len(),
        divergence(&q.env, &report.winner, &wtrace)
            .as_deref()
            .unwrap_or("no operator")
    );
    cheaper.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (factor, i, at) in &cheaper {
        let at = at.as_deref().unwrap_or_else(|| {
            panic!(
                "{label}: plan {i} ran {factor:.2}x cheaper than the winner with every \
                 estimate within 2x of its run: a cost-model error, not a cardinality error"
            )
        });
        eprintln!("  plan {i}: {factor:.2}x cheaper, estimate parts at {at}");
    }
    let worst = cheaper.first().map_or(1.0, |c| c.0);
    assert!(
        worst <= MAX_WINNER_INVERSION,
        "{label}: a plan ran {worst:.2}x cheaper than the winner, past {MAX_WINNER_INVERSION}"
    );
    report.plans.len()
}

/// Query 1 (Figure 1): employees × departments with a three-way
/// conjunction and a projection root.
#[test]
fn query1_all_enumerated_plans_agree() {
    let n = audit_query(
        r#"SELECT Newobject( e.name(), d.name() )
FROM Employee e IN Employees, Department d IN Department
WHERE d.floor() == 3 && e.age() >= 32 && e.last_raise() >= Date(1992,1,1)
  && e.dept() == d ;"#,
        "query1",
    );
    assert!(
        n >= 2,
        "query1 space has competing join strategies, got {n}"
    );
}

/// Query 2 (Figure 8): the collapse-to-index-scan query.
#[test]
fn query2_all_enumerated_plans_agree() {
    let n = audit_query(
        r#"SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe""#,
        "query2",
    );
    assert!(
        n >= 3,
        "query2 space: collapse, assembly, and join families, got {n}"
    );
}

/// Query 3 (Figure 10): Query 2 plus a projection that forces the
/// mayor's state into memory (the assembly-enforcer query).
#[test]
fn query3_all_enumerated_plans_agree() {
    let n = audit_query(
        r#"SELECT Newobject(c.mayor().age(), c.name())
FROM City c IN Cities WHERE c.mayor().name() == "Joe""#,
        "query3",
    );
    assert!(n >= 2, "got {n}");
}

/// Query 4: the EXISTS / set-valued traversal query.
#[test]
fn query4_all_enumerated_plans_agree() {
    let n = audit_query(
        r#"SELECT t FROM Task t IN Tasks
WHERE t.time() == 100
  && EXISTS (SELECT m FROM m IN t.team_members() WHERE m.name() == "Fred")"#,
        "query4",
    );
    assert!(n >= 2, "got {n}");
}

/// The execute-time half of the interval audit: actual row counts of a
/// traced run stay inside the intervals derived from the catalog — zero
/// false positives on a store the catalog describes correctly.
#[test]
fn traced_actuals_stay_inside_intervals_on_seed_corpus() {
    let (store, model) = db();
    for src in [
        r#"SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe""#,
        r#"SELECT t FROM Task t IN Tasks WHERE t.time() == 100"#,
    ] {
        let q = zql::compile(src, &model.schema, &model.catalog).expect("compiles");
        let out = OpenOodb::with_config(&q.env, OptimizerConfig::all_rules())
            .optimize(&q.plan, q.result_vars)
            .expect("plan");
        let (_, _, trace) = execute_traced(&store, &q.env, &out.plan);
        let escaped: Vec<String> = walk_actual(&q.env, &out.plan, &trace)
            .iter()
            .filter(|n| n.escapes())
            .map(|n| {
                format!(
                    "{}: {} rows outside {}",
                    n.trace.label, n.trace.actual_rows, n.interval
                )
            })
            .collect();
        assert!(escaped.is_empty(), "{src}: {escaped:?}");
    }
}
