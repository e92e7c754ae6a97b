//! Canonical forms: the strings and estimates other components key on.
//!
//! Three things leave the optimizer as identities rather than as plans,
//! and nothing else pins them byte for byte:
//!
//! * a query's fingerprint — its key enters every plan-cache entry, and
//!   its hash is the prepared-statement id that crosses the wire;
//! * a predicate's overlay key (`overlay::pred_key`) — the name under
//!   which the feedback loop files an observed selectivity, and so part of
//!   `StatsOverlay::fingerprint` in every cache key;
//! * every operator's estimate (`out_card`, `io_s`, `cpu_s`, to the bit)
//!   in every plan the enumeration oracle lists — what the search compares
//!   and what EXPLAIN prints.
//!
//! `tests/golden/canonical_forms.txt` records them for Q1–Q4, the Figure 2
//! query, Q2 with `ORDER BY` and `cold_adhoc`'s three-link Q1 variant, each
//! with respellings (renamed variables,
//! swapped conjuncts, `a > 1` against `1 < a`) that must land on the same
//! fingerprint. `OODB_GOLDEN_BLESS=1` rewrites the file.

use open_oodb::algebra::display::render_physical_op;
use open_oodb::algebra::fingerprint::fingerprint;
use open_oodb::algebra::overlay::pred_key;
use open_oodb::algebra::{CmpOp, PredId, SetOpKind, SortSpec};
use open_oodb::object::paper::PaperIds;
use open_oodb::prelude::*;
use open_oodb::volcano::EnumLimits;
use open_oodb::zql;
use std::fmt::Write as _;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/canonical_forms.txt"
);

/// Each query shape: its label, then its spellings. Every spelling of one
/// shape must share a fingerprint.
const SHAPES: [(&str, &[&str]); 7] = [
    (
        "q1",
        &[
            r#"SELECT Newobject( e.name(), d.name() )
FROM Employee e IN Employees, Department d IN Department
WHERE d.floor() == 3 && e.age() >= 32 && e.last_raise() >= Date(1992,1,1)
  && e.dept() == d"#,
            r#"SELECT Newobject( x.name(), y.name() )
FROM Employee x IN Employees, Department y IN Department
WHERE x.dept() == y && Date(1992,1,1) <= x.last_raise() && 32 <= x.age()
  && 3 == y.floor()"#,
        ],
    ),
    (
        "q1-chain",
        &[
            r#"SELECT Newobject(e.name(), e.job().name(), e.dept().name())
FROM Employee e IN Employees
WHERE e.dept().plant().location() == "loc00042""#,
            r#"SELECT Newobject(x.name(), x.job().name(), x.dept().name())
FROM Employee x IN Employees
WHERE "loc00042" == x.dept().plant().location()"#,
        ],
    ),
    (
        "q2",
        &[
            r#"SELECT c FROM City c IN Cities WHERE c.mayor().name() == "p00042""#,
            r#"SELECT town FROM City town IN Cities WHERE "p00042" == town.mayor().name()"#,
        ],
    ),
    (
        "q2-ordered",
        &[
            r#"SELECT c FROM City c IN Cities WHERE c.mayor().name() == "p00042"
ORDER BY c.population()"#,
            r#"SELECT y FROM City y IN Cities WHERE "p00042" == y.mayor().name()
ORDER BY y.population()"#,
        ],
    ),
    (
        "q3",
        &[
            r#"SELECT Newobject(c.mayor().age(), c.name())
FROM City c IN Cities WHERE c.mayor().name() == "p00042""#,
            r#"SELECT Newobject(k.mayor().age(), k.name())
FROM City k IN Cities WHERE "p00042" == k.mayor().name()"#,
        ],
    ),
    (
        "q4",
        &[
            r#"SELECT t FROM Task t IN Tasks WHERE t.time() > 41
&& EXISTS (SELECT m FROM m IN t.team_members() WHERE m.name() == "Fred")"#,
            r#"SELECT u FROM Task u IN Tasks
WHERE EXISTS (SELECT n FROM n IN u.team_members() WHERE "Fred" == n.name())
&& 41 < u.time()"#,
        ],
    ),
    (
        "fig2",
        &[
            r#"SELECT c FROM City c IN Cities
WHERE c.mayor().name() == c.country().president().name()
&& c.population() > 1500000"#,
            r#"SELECT z FROM City z IN Cities
WHERE 1500000 < z.population()
&& z.mayor().name() == z.country().president().name()"#,
        ],
    ),
];

/// The shapes whose enumerated plan space is pinned node by node (the
/// Figure 2 query's space is too large to list).
const AUDITED: [&str; 5] = ["q1", "q2", "q2-ordered", "q3", "q4"];

fn fingerprints(store: &Store, out: &mut String) {
    for (label, spellings) in SHAPES {
        let mut first = None;
        for (n, src) in spellings.iter().enumerate() {
            let q = zql::compile(src, store.schema(), store.catalog()).expect("compiles");
            let fp = fingerprint(&q.env, &q.plan, q.result_vars, q.order.as_ref());
            writeln!(out, "== fingerprint {label} spelling {n}").unwrap();
            writeln!(out, "key={}", fp.key).unwrap();
            writeln!(out, "hash={:016x}", fp.hash).unwrap();
            for i in 0..q.env.preds.len() {
                let pred = q.env.preds.pred(PredId::from_index(i));
                writeln!(out, "pred {i}: {}", pred_key(&q.env, pred)).unwrap();
            }
            let first = first.get_or_insert(fp.clone());
            assert_eq!(*first, fp, "{label}: spelling {n} fingerprints apart");
        }
    }
}

fn audit_plans(env: &QueryEnv, config: OptimizerConfig, q: AuditInput<'_>, out: &mut String) {
    let report = OpenOodb::with_config(env, config)
        .audit(q.plan, q.result_vars, q.order, EnumLimits::default())
        .expect("feasible plan");
    assert!(!report.truncated, "the pinned plan space is complete");
    for (n, plan) in report.plans.iter().enumerate() {
        writeln!(out, "-- plan {n}").unwrap();
        write_estimates(env, plan, 0, out);
    }
}

struct AuditInput<'q> {
    plan: &'q LogicalPlan,
    result_vars: VarSet,
    order: Option<SortSpec>,
}

fn write_estimates(env: &QueryEnv, node: &PhysicalPlan, depth: usize, out: &mut String) {
    let e = node.est;
    writeln!(
        out,
        "{:indent$}{} card={:016x} io={:016x} cpu={:016x}",
        "",
        render_physical_op(env, &node.op),
        e.out_card.to_bits(),
        e.io_s.to_bits(),
        e.cpu_s.to_bits(),
        indent = 2 * depth,
    )
    .unwrap();
    for c in &node.children {
        write_estimates(env, c, depth + 1, out);
    }
}

fn estimates(store: &Store, ids: &PaperIds, out: &mut String) {
    for (label, spellings) in SHAPES {
        if !AUDITED.contains(&label) {
            continue;
        }
        // Warm assembly is the one rule off by default; the second pass
        // turns it on so its estimate is pinned too.
        for warm in [false, true] {
            let mut config = OptimizerConfig::all_rules();
            if warm {
                config.disabled_rules.clear();
            }
            let q = zql::compile(spellings[0], store.schema(), store.catalog()).expect("compiles");
            let config_label = if warm { "warm-assembly" } else { "all-rules" };
            writeln!(out, "== estimates {label} {config_label}").unwrap();
            let input = AuditInput {
                plan: &q.plan,
                result_vars: q.result_vars,
                order: q.order,
            };
            audit_plans(&q.env, config, input, out);
        }
    }
    // No ZQL text yields a set operator or a join on two attributes:
    // hand-built ones pin the hash set operator's and the merge join's
    // estimates.
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
    writeln!(out, "== estimates union all-rules").unwrap();
    let input = AuditInput {
        plan: &plan,
        result_vars: VarSet::single(c),
        order: None,
    };
    audit_plans(&env, OptimizerConfig::all_rules(), input, out);

    let mut qb = QueryBuilder::new(store.schema().clone(), store.catalog().clone());
    let (cities, c) = qb.get(ids.cities, "c");
    let (emps, e) = qb.get(ids.employees, "e");
    let same_name = qb.eq_attr(c, ids.city_name, e, ids.person_name);
    let plan = qb.join(cities, emps, same_name);
    let env = qb.into_env();
    writeln!(out, "== estimates value-join all-rules").unwrap();
    let input = AuditInput {
        plan: &plan,
        result_vars: VarSet::single(c).insert(e),
        order: None,
    };
    audit_plans(&env, OptimizerConfig::all_rules(), input, out);
}

fn record() -> String {
    let (store, model) = generate_paper_db(GenConfig {
        scale_div: 100,
        ..Default::default()
    });
    let mut out = String::new();
    fingerprints(&store, &mut out);
    estimates(&store, &model.ids, &mut out);
    out
}

#[test]
fn fingerprints_overlay_keys_and_estimates_are_the_recorded_ones() {
    let got = record();
    if std::env::var("OODB_GOLDEN_BLESS").is_ok_and(|v| v != "0") {
        std::fs::write(GOLDEN, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect("golden file present");
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "canonical-forms line {} differs", n + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
