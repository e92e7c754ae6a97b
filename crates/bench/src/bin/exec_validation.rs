//! **Execution validation** — the experiment the paper could not run.
//!
//! "Actual assembly performance including the effects of buffer hits can
//! only be studied in the context of a real, working system; therefore, we
//! delay validating and refining assembly's cost function until the query
//! plan executor becomes operational."
//!
//! Our executor IS operational: this binary generates the Table 1 database
//! (full scale by default, `--scale N` divides), runs each paper query's
//! competing plans, and reports
//!
//! * the optimizer's estimated cost,
//! * the *simulated* I/O time actually incurred on the modeled disk
//!   (with a real LRU buffer pool in front),
//! * result cardinalities,
//! * and agreement between competing plans' result sets.
//!
//! The claim being validated is *ordinal*: wherever the optimizer prefers
//! plan A to plan B, the simulated run agrees.

use oodb_bench::{queries, report::render_table};
use oodb_core::config::rule_names as rn;
use oodb_core::{OpenOodb, OptimizerConfig};
use oodb_exec::execute;
use oodb_object::paper::paper_model_scaled;
use oodb_storage::{generate_paper_db, GenConfig};

type Case = (
    &'static str,
    Box<dyn Fn() -> queries::PaperQuery>,
    Vec<(&'static str, OptimizerConfig)>,
);

fn main() {
    let scale: u64 = std::env::args()
        .skip_while(|a| a != "--scale")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    println!("Generating the Table 1 database at scale 1/{scale}...");
    let (store, model) = generate_paper_db(GenConfig {
        scale_div: scale,
        ..Default::default()
    });
    let _ = paper_model_scaled(scale);

    let cases: Vec<Case> = vec![
        (
            "Query 1",
            Box::new({
                let m = model.clone();
                move || queries::query1(&m)
            }),
            vec![
                ("optimal", OptimizerConfig::all_rules()),
                (
                    "w/o commutativity",
                    OptimizerConfig::without_join_commutativity(),
                ),
                ("w/o window", OptimizerConfig::without_window()),
            ],
        ),
        (
            "Query 2",
            Box::new({
                let m = model.clone();
                move || queries::query2(&m)
            }),
            vec![
                ("optimal (index)", OptimizerConfig::all_rules()),
                (
                    "figure 9 (naive)",
                    OptimizerConfig::without(&[rn::COLLAPSE_TO_INDEX_SCAN, rn::MAT_TO_JOIN]),
                ),
            ],
        ),
        (
            "Query 3",
            Box::new({
                let m = model.clone();
                move || queries::query3(&m)
            }),
            vec![
                ("optimal (enforcer)", OptimizerConfig::all_rules()),
                (
                    "no enforcer",
                    OptimizerConfig::without(&[
                        rn::ASSEMBLY_ENFORCER,
                        rn::COLLAPSE_TO_INDEX_SCAN,
                        rn::MAT_TO_JOIN,
                    ]),
                ),
            ],
        ),
        (
            "Query 4",
            Box::new({
                let m = model.clone();
                move || queries::query4(&m)
            }),
            vec![
                ("optimal", OptimizerConfig::all_rules()),
                (
                    "naive",
                    OptimizerConfig::without(&[
                        rn::COLLAPSE_TO_INDEX_SCAN,
                        rn::MAT_TO_JOIN,
                        rn::SELECT_SPLIT,
                    ]),
                ),
            ],
        ),
    ];

    for (name, make_query, configs) in cases {
        println!("\n=== {name} ===");
        let mut rows = Vec::new();
        let mut result_sizes = Vec::new();
        let mut ordering_ok = true;
        let mut prev: Option<(f64, f64)> = None; // (estimate, simulated)
        for (label, config) in configs {
            let q = make_query();
            let opt = OpenOodb::with_config(&q.env, config);
            let out = opt.optimize(&q.plan, q.result_vars).expect("plan");
            let (result, stats) = execute(&store, &q.env, &out.plan);
            result_sizes.push(result.len());
            if let Some((pe, ps)) = prev {
                // Ordinal agreement: if estimates increase, simulated I/O
                // must not decrease (beyond noise).
                if (out.cost.total() > pe * 1.5) && (stats.disk.total_s < ps * 0.67) {
                    ordering_ok = false;
                }
            }
            prev = Some((out.cost.total(), stats.disk.total_s));
            rows.push(vec![
                label.to_string(),
                format!("{:.2}", out.cost.total()),
                format!("{:.2}", stats.disk.total_s),
                format!("{}", stats.disk.pages()),
                format!("{}/{}", stats.buffer_hits, stats.buffer_misses),
                format!("{}", result.len()),
            ]);
        }
        println!(
            "{}",
            render_table(
                &[
                    "Plan",
                    "Est. cost [s]",
                    "Simulated I/O [s]",
                    "Pages",
                    "Buf hit/miss",
                    "Rows"
                ],
                &rows
            )
        );
        let consistent = result_sizes.windows(2).all(|w| w[0] == w[1]);
        println!(
            "Result cardinalities agree across plans: {}",
            if consistent { "YES" } else { "NO  <-- BUG" }
        );
        println!(
            "Optimizer preference confirmed by simulated execution: {}",
            if ordering_ok { "YES" } else { "NO  <-- check" }
        );
    }
}
