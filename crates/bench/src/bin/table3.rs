//! **Table 3** — anticipated execution times for Query 4 under index
//! availability, cost-based optimal vs ObjectStore-style greedy.
//!
//! Paper:
//!
//! ```text
//! Indices      None   Time only   Name only   Both
//! All rules    108    1.73        28.4         1.73
//! Greedy use   108    1.73        28.4        10.1
//! ```
//!
//! The headline: with both indexes available the greedy strategy uses both
//! and lands >5× off optimal — "the greedy algorithm is too simplistic to
//! permit effective query optimization in object-oriented database
//! systems."
//!
//! Known deviation (recorded in EXPERIMENTS.md): our optimizer additionally
//! pushes the `t.time == 100` selection below the unnest even without an
//! index, improving the "None" and "Name only" optimal cells below the
//! paper's values; the greedy row reproduces the paper's numbers, which
//! correspond to the plans its optimizer reported.

use oodb_bench::{queries, report::render_table};
use oodb_core::{greedy_plan, CostParams, OodbModel, OpenOodb, OptimizerConfig};
use oodb_object::paper::paper_model;

fn main() {
    let m = paper_model();
    let sweeps: [(&str, Vec<&str>, f64, f64); 4] = [
        ("None", vec![], 108.0, 108.0),
        ("Time only", vec!["Tasks_time"], 1.73, 1.73),
        ("Name only", vec!["Employees_name"], 28.4, 28.4),
        ("Both", vec!["Tasks_time", "Employees_name"], 1.73, 10.1),
    ];

    let mut opt_row = vec!["All rules".to_string()];
    let mut greedy_row = vec!["Greedy use".to_string()];
    let mut plans = Vec::new();
    for (label, keep, paper_opt, paper_greedy) in &sweeps {
        let catalog = m.catalog.with_only_indexes(keep);
        let q = queries::query4_with_catalog(&m, catalog);
        let (out, greedy, greedy_cost) = {
            let opt = OpenOodb::with_config(&q.env, OptimizerConfig::all_rules());
            let out = opt.optimize(&q.plan, q.result_vars).expect("plan");
            let greedy = greedy_plan(
                &OodbModel::new(&q.env, CostParams::default(), OptimizerConfig::default()),
                &q.plan,
            )
            .expect("greedy");
            let cost = greedy.total_io_s() + greedy.total_cpu_s();
            (out, greedy, cost)
        };
        opt_row.push(format!("{:.2} (paper {paper_opt})", out.cost.total()));
        greedy_row.push(format!("{greedy_cost:.2} (paper {paper_greedy})"));
        plans.push((label.to_string(), q, out, greedy, greedy_cost));
    }

    println!("Table 3. Anticipated Execution Times for Query 4 [seconds].\n");
    println!(
        "{}",
        render_table(
            &["Indices", "None", "Time only", "Name only", "Both"],
            &[opt_row, greedy_row]
        )
    );

    let (_, q, out, greedy, greedy_cost) = plans.pop().expect("Both sweep");
    println!(
        "\nWith both indexes — optimal plan (Figure 12, {:.2} s):",
        out.cost.total()
    );
    println!(
        "{}",
        oodb_algebra::display::render_physical(&q.env, &out.plan)
    );
    println!("Greedy plan (Figure 13, {greedy_cost:.2} s):");
    println!(
        "{}",
        oodb_algebra::display::render_physical(&q.env, &greedy)
    );
    println!(
        "Greedy is {:.1}× slower than optimal with both indexes present.",
        greedy_cost / out.cost.total()
    );
}
