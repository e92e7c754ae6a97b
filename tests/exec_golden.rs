//! Executor golden file: every enumerated Q1–Q4 plan (the `tests/audit.rs`
//! corpus) × {100%, 25%} memory grants must produce the rows, operation
//! counts, buffer traffic, simulated disk time and spill traffic recorded
//! in `tests/golden/exec_plans.txt`, to the last digit. The file was
//! recorded from the materialise-everything executor (commit f652406)
//! before the batch pipeline replaced it: the engine may change speed, not
//! the paper's simulated cost model.
//!
//! The store is scale 1/10: 5000-row employee scans, five batches each.
//! `OODB_GOLDEN_BLESS=1` rewrites the file.

use open_oodb::algebra::fingerprint::fnv1a;
use open_oodb::exec::ExecResult;
use open_oodb::prelude::*;
use open_oodb::volcano::EnumLimits;
use open_oodb::zql;
use std::fmt::Write as _;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/exec_plans.txt");

const QUERIES: [(&str, &str); 4] = [
    (
        "q1",
        r#"SELECT Newobject( e.name(), d.name() )
FROM Employee e IN Employees, Department d IN Department
WHERE d.floor() == 3 && e.age() >= 32 && e.last_raise() >= Date(1992,1,1)
  && e.dept() == d ;"#,
    ),
    (
        "q2",
        r#"SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe""#,
    ),
    (
        "q3",
        r#"SELECT Newobject(c.mayor().age(), c.name())
FROM City c IN Cities WHERE c.mayor().name() == "Joe""#,
    ),
    (
        "q4",
        r#"SELECT t FROM Task t IN Tasks
WHERE t.time() == 100
  && EXISTS (SELECT m FROM m IN t.team_members() WHERE m.name() == "Fred")"#,
    ),
];

/// One rendered line per result row, in the order the executor produced
/// them; tuples are restricted to the query's result variables.
fn render(result: &ExecResult, vars: VarSet) -> Vec<String> {
    match result {
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
    }
}

/// The golden fields of one run — produced-order and canonical (sorted)
/// hashes of the result bytes plus every exact counter — and, beside the
/// line, the run's peak bytes and simulated disk seconds.
fn run_line(
    store: &Store,
    env: &QueryEnv,
    plan: &PhysicalPlan,
    vars: VarSet,
    budget: Option<u64>,
) -> (String, u64, f64) {
    let limits = RunLimits {
        mem_budget: budget,
        ..Default::default()
    };
    match try_execute(store, env, plan, limits) {
        Err(e) => (format!("ERR {e}"), 0, 0.0),
        Ok((result, s)) => {
            let mut lines = render(&result, vars);
            let ordered = fnv1a(lines.join("\n").as_bytes());
            lines.sort();
            let canon = fnv1a(lines.join("\n").as_bytes());
            let line = format!(
                "rows={} ordered={ordered:016x} canon={canon:016x} tuples={} preds={} \
                 hash_ops={} derefs={} hits={} misses={} pages={} io_s={:?} spill_w={} \
                 spill_r={} parts={} denials={}",
                result.len(),
                s.counts.tuples,
                s.counts.preds,
                s.counts.hash_ops,
                s.counts.derefs,
                s.buffer_hits,
                s.buffer_misses,
                s.disk.pages(),
                s.disk.total_s,
                s.mem.spill_pages_written,
                s.mem.spill_pages_read,
                s.mem.spilled_partitions,
                s.mem.grant_denials,
            );
            (line, s.mem.peak_bytes, s.disk.total_s)
        }
    }
}

fn record() -> String {
    let (store, model) = generate_paper_db(GenConfig {
        scale_div: 10,
        ..Default::default()
    });
    let mut out = String::new();
    let mut total = 0;
    for (label, src) in QUERIES {
        let q = zql::compile(src, &model.schema, &model.catalog).expect("compiles");
        let report = OpenOodb::with_config(&q.env, OptimizerConfig::all_rules())
            .audit(&q.plan, q.result_vars, None, EnumLimits::default())
            .expect("feasible plan");
        assert!(!report.truncated, "{label}: enumeration truncated");
        total += report.plans.len();
        for (i, plan) in report.plans.iter().enumerate() {
            let shape = fnv1a(render_physical(&q.env, plan).as_bytes());
            let (base, peak, base_io_s) = run_line(&store, &q.env, plan, q.result_vars, None);
            writeln!(out, "{label}/{i:03} plan={shape:016x} peak={peak}").unwrap();
            writeln!(out, "  g=100 {base}").unwrap();
            let canon = |line: &str| {
                line.split(' ')
                    .find(|f| f.starts_with("canon="))
                    .map(str::to_owned)
            };
            let budget = peak / 4;
            let (line, held, io_s) = run_line(&store, &q.env, plan, q.result_vars, Some(budget));
            assert_eq!(
                canon(&line),
                canon(&base),
                "{label}/{i}: same rows under any grant"
            );
            // The grant caps what a run holds, and spilling under a
            // quarter grant costs at most 2.2x the simulated disk time of
            // the full-grant run (2.107 on q2/003).
            assert!(held <= budget, "{label}/{i}: peak {held} > grant {budget}");
            assert!(
                io_s <= 2.2 * base_io_s,
                "{label}/{i}: spill I/O {io_s} vs {base_io_s} at full grant"
            );
            writeln!(out, "  g=25 {line}").unwrap();
        }
    }
    writeln!(out, "plans={total}").unwrap();
    out
}

#[test]
fn every_enumerated_plan_reproduces_the_recorded_run() {
    let got = record();
    if std::env::var("OODB_GOLDEN_BLESS").is_ok_and(|v| v != "0") {
        std::fs::write(GOLDEN, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect("golden file present");
    assert!(want.ends_with("plans=127\n"), "golden corpus is 127 plans");
    // A header, a full-grant run and a quarter-grant run per plan.
    assert_eq!(want.lines().count(), 382);
    // The recorded corpus does exercise the refused-build fallbacks: a
    // quarter of a join's own peak never covers its build side.
    let refused = |l: &&str| l.contains(" g=25 ") && !l.contains(" parts=0 ");
    assert!(want.lines().filter(refused).count() >= 50);
    // On failure, name the fields that moved on each line: a re-record is
    // reviewed by which counters changed where, not by reading hashes.
    let mut differing = Vec::new();
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        if g != w {
            let run = w.trim_start().split(" rows=").next().unwrap_or(w);
            let moved: Vec<&str> = (g.split(' ').zip(w.split(' ')))
                .filter(|(g, w)| g != w)
                .map(|(g, _)| g.split('=').next().unwrap_or(g))
                .collect();
            differing.push(format!("line {} ({run}): {}", n + 1, moved.join(" ")));
        }
    }
    assert!(
        differing.is_empty(),
        "{} golden lines differ, in these fields:\n{}",
        differing.len(),
        differing.join("\n")
    );
    assert_eq!(got.lines().count(), want.lines().count());
}
