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
//! The catalog is the scale-1/100 one `cold_adhoc` optimizes against.
//! `OODB_GOLDEN_BLESS=1` rewrites the file.

use open_oodb::core::config::rule_names as rn;
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

fn record() -> String {
    let (store, _) = generate_paper_db(GenConfig {
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
            // A fresh environment per search: rules intern predicates
            // into it, and `PredId`s are part of what is pinned.
            let q = zql::compile(src, store.schema(), store.catalog()).expect("compiles");
            let found = OpenOodb::with_config(&q.env, config)
                .optimize_ordered(&q.plan, q.result_vars, q.order)
                .expect("feasible plan");
            let s = found.stats;
            let without = if config_label == "all-rules" {
                String::new()
            } else {
                " without".to_string()
            };
            writeln!(out, "== {label}{without} {config_label}").unwrap();
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
            out.push_str(&render_physical(&q.env, &found.plan));
            if !out.ends_with('\n') {
                out.push('\n');
            }
        }
    }
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
        SHAPES.len() * (1 + TRANSFORMS.len()),
        "the table is five shapes x thirteen rule sets"
    );
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "fingerprint line {} differs", n + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
