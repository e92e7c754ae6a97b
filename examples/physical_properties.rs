//! Physical properties and goal-directed search (Queries 2 and 3,
//! Figures 8–11), plus the index-availability sweep of Table 3.
//!
//! The star of this example is the *present-in-memory* property: asking
//! for the mayor's age (Query 3) makes the bare index scan infeasible, and
//! the assembly **enforcer** — not any logical rewrite — finds the plan
//! that assembles only the two surviving mayors.
//!
//! ```sh
//! cargo run --example physical_properties
//! ```

use open_oodb::core::config::rule_names as rn;
use open_oodb::core::OodbModel;
use open_oodb::prelude::*;

fn compile(
    src: &str,
    model: &open_oodb::object::paper::PaperModel,
    catalog: &Catalog,
) -> open_oodb::zql::SimplifiedQuery {
    open_oodb::zql::compile(src, &model.schema, catalog).expect("query compiles")
}

fn main() {
    let (store, model) = generate_paper_db(GenConfig {
        scale_div: 10,
        ..Default::default()
    });

    let q2 = r#"SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe""#;
    let q3 = r#"SELECT Newobject(c.mayor().age(), c.name())
FROM City c IN Cities WHERE c.mayor().name() == "Joe""#;

    // --- Query 2: the index scan answers everything -----------------------
    println!("Query 2: {q2}\n");
    let q = compile(q2, &model, &model.catalog);
    let out = OpenOodb::with_config(&q.env, OptimizerConfig::all_rules())
        .optimize(&q.plan, q.result_vars)
        .unwrap();
    println!(
        "With the path index, the whole query collapses ({:.2} s):\n{}",
        out.cost.total(),
        render_physical(&q.env, &out.plan)
    );

    // Drop the index (ObjectStore-style "the user deleted an index"):
    // the optimizer adapts without recompiling anything else.
    let no_index = model.catalog.with_only_indexes(&[]);
    let q = compile(q2, &model, &no_index);
    let out = OpenOodb::with_config(&q.env, OptimizerConfig::all_rules())
        .optimize(&q.plan, q.result_vars)
        .unwrap();
    println!(
        "Same query, index dropped ({:.2} s):\n{}",
        out.cost.total(),
        render_physical(&q.env, &out.plan)
    );

    // --- Query 3: the enforcer earns its keep ------------------------------
    println!("Query 3 (mayor's age required): {q3}\n");
    let q = compile(q3, &model, &model.catalog);
    let out = OpenOodb::with_config(&q.env, OptimizerConfig::all_rules())
        .optimize(&q.plan, q.result_vars)
        .unwrap();
    println!(
        "Goal-directed plan — assembly as ENFORCER over the index scan \
         ({:.2} s):\n{}",
        out.cost.total(),
        render_physical(&q.env, &out.plan)
    );
    let (result, stats) = execute(&store, &q.env, &out.plan);
    println!(
        "executed: {} rows, {} simulated pages\n",
        result.len(),
        stats.disk.pages()
    );

    // What a purely algebraic optimizer would be stuck with:
    let q = compile(q3, &model, &model.catalog);
    let out = OpenOodb::with_config(
        &q.env,
        OptimizerConfig::without(&[
            rn::ASSEMBLY_ENFORCER,
            rn::COLLAPSE_TO_INDEX_SCAN,
            rn::MAT_TO_JOIN,
        ]),
    )
    .optimize(&q.plan, q.result_vars)
    .unwrap();
    println!(
        "Without enforcers (logical-only optimization, {:.2} s — three\n\
         orders of magnitude at paper scale):\n{}",
        out.cost.total(),
        render_physical(&q.env, &out.plan)
    );

    // --- Table 3 in miniature: cost-based beats greedy ----------------------
    let q4 = r#"SELECT t FROM Task t IN Tasks
WHERE t.time() == 100
  && EXISTS (SELECT m FROM m IN t.team_members() WHERE m.name() == "Fred")"#;
    println!("Query 4: {q4}\n");
    let q = compile(q4, &model, &model.catalog);
    let out = OpenOodb::with_config(&q.env, OptimizerConfig::all_rules())
        .optimize(&q.plan, q.result_vars)
        .unwrap();
    let greedy = greedy_plan(
        &OodbModel::new(&q.env, CostParams::default(), OptimizerConfig::default()),
        &q.plan,
    )
    .expect("greedy handles this shape");
    let greedy_cost = greedy.total_io_s() + greedy.total_cpu_s();
    println!(
        "Cost-based ({:.2} s) uses ONLY the time index:\n{}",
        out.cost.total(),
        render_physical(&q.env, &out.plan)
    );
    println!(
        "Greedy ({greedy_cost:.2} s) grabs BOTH indexes and loses by {:.1}x:\n{}",
        greedy_cost / out.cost.total(),
        render_physical(&q.env, &greedy)
    );
}
