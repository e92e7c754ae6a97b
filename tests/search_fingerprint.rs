//! Search-engine fingerprint: for the five `cold_adhoc` query shapes
//! (Q1–Q4 and Figure 2's two-branch path) × {all rules, each single
//! transformation rule disabled}, the Volcano search must leave exactly
//! the memo, spend exactly the effort and pick exactly the plan recorded
//! in `tests/golden/search_fingerprint.txt`.
//!
//! The executor golden file pins what plans *do*; this one pins how the
//! search *got there* — `ExprId` allocation order, group membership,
//! rule-firing counts, goal counts, the winner's cost to the bit. A change
//! to the memo or the search loop that is meant to be mechanical must keep
//! every cell; a cell that moves is either a bug or a plan-space change
//! that has to be explained (EXPERIMENTS.md, "Search fingerprint").
//!
//! Five all-rules rows follow the sweep, for the rules those shapes never
//! search: Q2 with `ORDER BY` (the Sort enforcer, Ordered Index Scan), Q1
//! and Q2 with warm assembly enabled, and the hand-built union and value
//! join of `tests/canonical_forms.rs` (Hash Set Op, Merge Join).
//!
//! The catalog is the scale-1/100 one `cold_adhoc` optimizes against.
//! `OODB_GOLDEN_BLESS=1` rewrites the file.

use open_oodb::algebra::{CmpOp, SetOpKind, SortSpec};
use open_oodb::core::config::rule_names as rn;
use open_oodb::object::paper::PaperIds;
use open_oodb::prelude::*;
use open_oodb::zql;
use std::fmt::Write as _;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/search_fingerprint.txt"
);

/// One text per `cold_adhoc` shape (`benchmark/src/pool.rs`).
const SHAPES: [(&str, &str); 5] = [
    (
        "q1",
        r#"SELECT Newobject(e.name(), e.job().name(), e.dept().name())
FROM Employee e IN Employees
WHERE e.dept().plant().location() == "loc00042""#,
    ),
    (
        "q2",
        r#"SELECT c FROM City c IN Cities WHERE c.mayor().name() == "p00042""#,
    ),
    (
        "q3",
        r#"SELECT Newobject(c.mayor().age(), c.name())
FROM City c IN Cities WHERE c.mayor().name() == "p00042""#,
    ),
    (
        "q4",
        r#"SELECT t FROM Task t IN Tasks WHERE t.time() == 42
&& EXISTS (SELECT m FROM m IN t.team_members() WHERE m.name() == "Fred")"#,
    ),
    (
        "fig2",
        r#"SELECT c FROM City c IN Cities
WHERE c.mayor().name() == c.country().president().name()
&& c.population() > 1500000"#,
    ),
];

/// The transformation rules, in registration order.
const TRANSFORMS: [&str; 12] = [
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
    rn::SELECT_SETOP_PUSH,
    rn::MAT_SETOP_PUSH,
];

/// Q2 with a required order: the one `cold_adhoc`-like text that
/// searches the Sort enforcer and Ordered Index Scan.
const Q2_ORDERED: &str = r#"SELECT c FROM City c IN Cities WHERE c.mayor().name() == "p00042"
ORDER BY c.population()"#;

/// Rows recorded after the single-rule sweep.
const EXTRA_ROWS: usize = 5;

/// One row: the label, the search's effort and cost, then the winner.
fn write_row(out: &mut String, label: &str, env: &QueryEnv, plan: &LogicalPlan, query: Query) {
    let found = OpenOodb::with_config(env, query.config)
        .optimize_ordered(plan, query.result_vars, query.order)
        .expect("feasible plan");
    let s = found.stats;
    writeln!(out, "== {label}").unwrap();
    writeln!(
        out,
        "groups={} exprs={} exprs_generated={} transform_firings={} candidates={} \
         plans_costed={} goals={} enforcements={} cost={:016x}",
        s.groups,
        s.exprs,
        s.exprs_generated,
        s.transform_firings,
        s.candidates,
        s.plans_costed,
        s.goals,
        s.enforcements,
        found.cost.total().to_bits(),
    )
    .unwrap();
    out.push_str(&render_physical(env, &found.plan));
    if !out.ends_with('\n') {
        out.push('\n');
    }
}

/// What a row searches for, beside its plan.
struct Query {
    config: OptimizerConfig,
    result_vars: VarSet,
    order: Option<SortSpec>,
}

/// Compiles `src` into a fresh environment — rules intern predicates into
/// it, and `PredId`s are part of what is pinned — and records its row.
fn write_text_row(
    out: &mut String,
    label: &str,
    store: &Store,
    src: &str,
    config: OptimizerConfig,
) {
    let q = zql::compile(src, store.schema(), store.catalog()).expect("compiles");
    let query = Query {
        config,
        result_vars: q.result_vars,
        order: q.order,
    };
    write_row(out, label, &q.env, &q.plan, query);
}

/// The rows no ZQL text of the sweep reaches.
fn extra_rows(store: &Store, ids: &PaperIds, out: &mut String) {
    write_text_row(
        out,
        "q2-ordered all-rules",
        store,
        Q2_ORDERED,
        OptimizerConfig::all_rules(),
    );
    for (label, src) in [("q1", SHAPES[0].1), ("q2", SHAPES[1].1)] {
        let mut config = OptimizerConfig::all_rules();
        config.disabled_rules.clear();
        write_text_row(out, &format!("{label} warm-assembly"), store, src, config);
    }
    // No ZQL text yields a set operator or a join on two attributes: the
    // hand-built ones of `tests/canonical_forms.rs`.
    let mut qb = QueryBuilder::new(store.schema().clone(), store.catalog().clone());
    let (l, c) = qb.get(ids.cities, "c");
    let big = qb.cmp_const(c, ids.city_population, CmpOp::Gt, Value::Int(1_500_000));
    let l = qb.select(l, big);
    let r = LogicalPlan::leaf(LogicalOp::Get {
        coll: ids.cities,
        var: c,
    });
    let named = qb.eq_const(c, ids.city_name, Value::str("c00042"));
    let r = qb.select(r, named);
    let plan = qb.set_op(SetOpKind::Union, l, r);
    let env = qb.into_env();
    let query = Query {
        config: OptimizerConfig::all_rules(),
        result_vars: VarSet::single(c),
        order: None,
    };
    write_row(out, "union all-rules", &env, &plan, query);

    let mut qb = QueryBuilder::new(store.schema().clone(), store.catalog().clone());
    let (cities, c) = qb.get(ids.cities, "c");
    let (emps, e) = qb.get(ids.employees, "e");
    let same_name = qb.eq_attr(c, ids.city_name, e, ids.person_name);
    let plan = qb.join(cities, emps, same_name);
    let env = qb.into_env();
    let query = Query {
        config: OptimizerConfig::all_rules(),
        result_vars: VarSet::single(c).insert(e),
        order: None,
    };
    write_row(out, "value-join all-rules", &env, &plan, query);
}

fn record() -> String {
    let (store, model) = generate_paper_db(GenConfig {
        scale_div: 100,
        ..Default::default()
    });
    let mut out = String::new();
    for (label, src) in SHAPES {
        let configs = std::iter::once(("all-rules", OptimizerConfig::all_rules())).chain(
            TRANSFORMS
                .iter()
                .map(|&rule| (rule, OptimizerConfig::without(&[rule]))),
        );
        for (config_label, config) in configs {
            let row = if config_label == "all-rules" {
                format!("{label} {config_label}")
            } else {
                format!("{label} without {config_label}")
            };
            write_text_row(&mut out, &row, &store, src, config);
        }
    }
    extra_rows(&store, &model.ids, &mut out);
    out
}

#[test]
fn search_leaves_the_recorded_memo_effort_and_winner() {
    let got = record();
    if std::env::var("OODB_GOLDEN_BLESS").is_ok_and(|v| v != "0") {
        std::fs::write(GOLDEN, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect("golden file present");
    assert_eq!(
        want.lines().filter(|l| l.starts_with("== ")).count(),
        SHAPES.len() * (1 + TRANSFORMS.len()) + EXTRA_ROWS,
        "the table is five shapes x thirteen rule sets, then the extra rows"
    );
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "fingerprint line {} differs", n + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
