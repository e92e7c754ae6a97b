//! Extending the optimizer — the "research workbench" story.
//!
//! The paper's first stated goal is extensibility: new algebraic
//! operators, execution algorithms, rules, and enforcers should slot in
//! without touching the search engine. This example demonstrates two
//! extensions:
//!
//! 1. enabling **warm-start assembly** (the paper's Lesson 7 future-work
//!    algorithm): scan the referenced collection sequentially into memory
//!    before assembling, beating per-reference faults whenever references
//!    far outnumber the collection's pages;
//! 2. registering a **custom transformation rule** on top of the standard
//!    rule set through `OpenOodb::with_rule_set`.
//!
//! ```sh
//! cargo run --example extending_the_optimizer
//! ```

use open_oodb::core::config::rule_names;
use open_oodb::core::model::OodbModel;
use open_oodb::core::rules::rule_set;
use open_oodb::prelude::*;
use open_oodb::volcano::{Expr, Memo, Rewrites, RuleSignature, TransformRule};

/// A (deliberately simple) custom rule: eliminate selections whose
/// predicate is the empty conjunction (`true`). Nothing in the standard
/// rule set produces them, but a front end might.
struct TrueSelectElim;

impl<'e> TransformRule<OodbModel<'e>> for TrueSelectElim {
    fn name(&self) -> &'static str {
        "true-select-elimination"
    }
    /// The engine offers the rule selections only, once each: it reads
    /// the predicate, not the input group. It emits that group itself,
    /// which is no new operator, so it produces no tag.
    fn signature(&self) -> RuleSignature {
        RuleSignature {
            consumes: &["Select"],
            produces: &[],
            generative: false,
            reads_inputs: false,
        }
    }
    fn apply(
        &self,
        model: &OodbModel<'e>,
        _memo: &Memo<OodbModel<'e>>,
        expr: &Expr<OodbModel<'e>>,
        out: &mut Rewrites<LogicalOp>,
    ) {
        if let LogicalOp::Select { pred } = &expr.op {
            if model.env.preds.pred(*pred).terms.is_empty() {
                // Select[true](X) ≡ X: assert group equivalence.
                let input = out.group(expr.children[0]);
                out.emit(input);
            }
        }
    }
}

fn main() {
    let m = paper_model();

    // A query whose best 1993 plan chases 10,000 references: Query 2 with
    // the path index unavailable.
    let catalog = m.catalog.with_only_indexes(&[]);
    let src = r#"SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe""#;

    // --- Baseline 1993 rule set -------------------------------------------
    let q = open_oodb::zql::compile(src, &m.schema, &catalog).unwrap();
    let out = OpenOodb::with_config(&q.env, OptimizerConfig::all_rules())
        .optimize(&q.plan, q.result_vars)
        .unwrap();
    println!(
        "1993 rule set, no index ({:.2} s):\n{}",
        out.cost.total(),
        render_physical(&q.env, &out.plan)
    );

    // --- Extension 1: warm-start assembly ---------------------------------
    let q = open_oodb::zql::compile(src, &m.schema, &catalog).unwrap();
    let mut config = OptimizerConfig::all_rules();
    config.disabled_rules.remove(rule_names::WARM_ASSEMBLY);
    let out = OpenOodb::with_config(&q.env, config)
        .optimize(&q.plan, q.result_vars)
        .unwrap();
    println!(
        "With warm-start assembly enabled ({:.2} s) — one sequential sweep\n\
         of extent(Person) replaces 10,000 faults:\n{}",
        out.cost.total(),
        render_physical(&q.env, &out.plan)
    );
    assert!(
        out.plan
            .contains_op(&|op| matches!(op, PhysicalOp::WarmAssembly { .. }))
            || out.cost.total() < 10.0,
        "warm assembly should win or something even better must exist"
    );

    // --- Extension 2: a custom transformation rule -------------------------
    // Build a query with a vacuous selection the standard rules can't
    // remove, then watch the custom rule erase it.
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (cities, c) = qb.get(m.ids.cities, "c");
    let true_pred = qb.conj(vec![]); // empty conjunction = true
    let plan = qb.select(cities, true_pred);
    let env = qb.into_env();

    let config = OptimizerConfig::all_rules();
    let mut rules = rule_set(&config);
    rules.transforms.push(Box::new(TrueSelectElim));
    let optimizer = OpenOodb::with_rule_set(&env, CostParams::default(), config, rules);
    let out = optimizer.optimize(&plan, VarSet::single(c)).unwrap();
    println!(
        "Custom rule erased Select[true] — the plan is a bare scan:\n{}",
        render_physical(&env, &out.plan)
    );
    assert!(matches!(out.plan.op, PhysicalOp::FileScan { .. }));
    println!(
        "Rules, algorithms, properties and costs all extend without touching\n\
         the generated search engine — \"the modularization prescribed by the\n\
         optimizer generator will enable us and other developers to extend and\n\
         refine the Open OODB query optimizer.\""
    );
}
