//! The plan-space auditor: independent oracles over the generated
//! optimizer.
//!
//! The search engine memoizes one winner per goal and proves nothing
//! about it. This module supplies three static checks that together make
//! regressions in the rule set or the cost model *observable* instead of
//! silently producing worse plans:
//!
//! * **Enumeration oracle** ([`OpenOodb::audit`]): counts the physical
//!   plans the memo encodes for a query and, up to a bound, enumerates
//!   every one via [`volcano::enumerate`], re-costs each through the shared
//!   estimator, and reports whether the search's winner is cost-minimal
//!   over the whole space. Callers additionally execute every enumerated
//!   plan and compare result bytes (see `tests/audit.rs` at the
//!   workspace root — this crate has no executor dependency).
//! * **Interval cardinality audit**: every enumerated plan is run
//!   through [`oodb_verify::check_card_intervals`], so a cost-model
//!   estimate escaping its sound `[lo, hi]` bounds fails the audit even
//!   on plans the search would never pick.
//! * **Rule-graph termination** ([`OpenOodb::prove_rules_terminate`])
//!   and **confluence** ([`check_confluence`]): the static half proves
//!   the declared rule signatures admit no generative rewrite cycle; the
//!   operational half re-runs exhaustive exploration under rotated
//!   transformation-rule orderings and demands the identical memo shape
//!   and winner cost — the memo analogue of local confluence on critical
//!   pairs.

use crate::config::OptimizerConfig;
use crate::cost::CostParams;
use crate::model::OodbModel;
use crate::optimizer::{merge_assemblies, plan_cost, seed, OpenOodb};
use crate::rules::rule_set;
use oodb_algebra::{LogicalPlan, PhysProps, PhysicalPlan, QueryEnv, VarSet};
use volcano::{Optimizer, SearchConfig};
// Re-exported so auditor callers (the CLI, scripts) need no direct
// `volcano` dependency.
pub use volcano::{CycleWitness, EnumLimits, TerminationProof};

/// Relative slack for cost comparisons (floating-point accumulation
/// order differs between the search and re-annotation).
const COST_SLACK: f64 = 1e-9;

/// The enumeration oracle's verdict on one query.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// Every enumerated plan, annotated (re-costed) through the shared
    /// estimator, assemblies merged — directly executable.
    pub plans: Vec<PhysicalPlan>,
    /// The search's winning plan, identically annotated.
    pub winner: PhysicalPlan,
    /// Re-costed total of the winner (seconds).
    pub winner_cost: f64,
    /// Cheapest re-costed total over the enumerated space
    /// (`f64::INFINITY` when no plan was enumerated).
    pub best_cost: f64,
    /// Whether the winner is cost-minimal over the *complete* space:
    /// false when the space was over the bound — an oracle over no plan
    /// proves nothing.
    pub cost_minimal: bool,
    /// How many plans the space holds (saturating).
    pub plan_count: u64,
    /// Whether the space held more plans than the bound, so none was
    /// built.
    pub truncated: bool,
    /// Interval-cardinality diagnostics over every enumerated plan
    /// (empty on a sound cost model).
    pub interval_diags: Vec<oodb_verify::Diagnostic>,
}

impl AuditReport {
    /// The audit passed outright: complete space, minimal winner, no
    /// interval escapes.
    pub fn sound(&self) -> bool {
        self.cost_minimal && !self.truncated && self.interval_diags.is_empty()
    }
}

impl<'e> OpenOodb<'e> {
    /// Runs the enumeration oracle on a query: optimizes as
    /// [`OpenOodb::optimize`] would, then counts the plan space and, if it
    /// is within `limits`, enumerates and re-costs every member. Pruning is
    /// disabled for the run — the oracle audits the exhaustive search
    /// the paper describes, and branch-and-bound shortcuts would leave
    /// goals unexplored.
    ///
    /// Returns `None` when no feasible plan exists.
    pub fn audit(
        &self,
        plan: &LogicalPlan,
        result_vars: VarSet,
        order: Option<oodb_algebra::SortSpec>,
        limits: EnumLimits,
    ) -> Option<AuditReport> {
        let mut opt = Optimizer::new(&self.model, &self.rules, SearchConfig::default());
        let root = seed(&mut opt.memo, &self.model, plan).ok()?;
        let props = PhysProps {
            in_memory: self.model.objify(result_vars),
            order,
        };
        let node = opt.run(root, props)?;
        let en = opt.enumerate_bounded(root, props, limits);

        let winner = merge_assemblies(self.annotate(&node));
        let winner_cost = plan_cost(&winner).total();
        let mut plans = Vec::with_capacity(en.plans.len());
        let mut interval_diags = Vec::new();
        let mut best_cost = f64::INFINITY;
        for p in &en.plans {
            let annotated = merge_assemblies(self.annotate(p));
            let cost = plan_cost(&annotated).total();
            best_cost = best_cost.min(cost);
            interval_diags.extend(oodb_verify::check_card_intervals(
                self.model.env,
                &annotated,
            ));
            plans.push(annotated);
        }
        let cost_minimal = !en.truncated
            && !plans.is_empty()
            && winner_cost <= best_cost * (1.0 + COST_SLACK) + COST_SLACK;
        Some(AuditReport {
            plans,
            winner,
            winner_cost,
            best_cost,
            cost_minimal,
            plan_count: en.count,
            truncated: en.truncated,
            interval_diags,
        })
    }

    /// Proves the configured rule set terminates under memo-based
    /// exploration, or returns the rendered cycle witness. Thin wrapper
    /// over [`volcano::prove_termination`] for the crate's own rule set.
    pub fn prove_rules_terminate(&self) -> Result<TerminationProof, CycleWitness> {
        volcano::prove_termination(&self.rules)
    }
}

/// One exploration run of the confluence check.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConfluenceRun {
    /// How far the transformation-rule vector was rotated.
    pub rotation: usize,
    /// Memo groups at the exploration fixpoint.
    pub groups: usize,
    /// Memo expressions at the fixpoint.
    pub exprs: usize,
    /// Winner total cost at the goal (`None` if infeasible).
    pub winner_cost: Option<f64>,
}

/// The confluence check's verdict: one run per rule-order rotation.
#[derive(Clone, Debug)]
pub struct ConfluenceReport {
    /// The individual runs, rotation 0 first.
    pub runs: Vec<ConfluenceRun>,
}

impl ConfluenceReport {
    /// All rotations reached the same fixpoint (same memo shape) and the
    /// same winner cost: the rule set is confluent on this query.
    pub fn confluent(&self) -> bool {
        let Some(first) = self.runs.first() else {
            return true;
        };
        self.runs.iter().all(|r| {
            r.groups == first.groups
                && r.exprs == first.exprs
                && match (r.winner_cost, first.winner_cost) {
                    (None, None) => true,
                    (Some(a), Some(b)) => {
                        (a - b).abs() <= COST_SLACK * a.abs().max(b.abs()).max(1.0)
                    }
                    _ => false,
                }
        })
    }
}

/// Tests confluence operationally: explores `plan` to fixpoint under
/// `rotations` rotated orderings of the transformation rules and
/// compares the resulting memo shapes and winner costs. Exhaustive
/// exploration of a confluent rule set reaches the same closure
/// regardless of firing order; a rule whose effect depends on what fired
/// before it (a genuine critical-pair divergence) shows up as differing
/// group/expression counts or a different winner.
pub fn check_confluence(
    env: &QueryEnv,
    params: CostParams,
    config: &OptimizerConfig,
    plan: &LogicalPlan,
    result_vars: VarSet,
    rotations: usize,
) -> ConfluenceReport {
    let mut runs = Vec::new();
    for rotation in 0..rotations.max(1) {
        let mut rules = rule_set(config);
        if !rules.transforms.is_empty() {
            let n = rules.transforms.len();
            rules.transforms.rotate_left(rotation % n);
        }
        let model = OodbModel::new(env, params, config.clone());
        let mut opt = Optimizer::new(&model, &rules, SearchConfig::default());
        let Ok(root) = seed(&mut opt.memo, &model, plan) else {
            break; // no fixpoint to compare: every rotation refuses alike
        };
        opt.explore_all();
        let props = PhysProps::in_memory(model.objify(result_vars));
        let winner_cost = opt.optimize_group(root, &props);
        runs.push(ConfluenceRun {
            rotation,
            groups: opt.memo.group_count(),
            exprs: opt.memo.expr_count(),
            winner_cost: winner_cost.map(|c| c.total()),
        });
    }
    ConfluenceReport { runs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_algebra::{CmpOp, Operand, QueryBuilder};
    use oodb_object::paper::paper_model;
    use oodb_object::Value;
    use volcano::{Expr, Memo, Rewrites, RuleSignature, TransformRule};

    /// Query 2: Select over Mat over Get — itself a critical pair
    /// (SelectMatSwap and MatToJoin both fire on the Mat).
    fn query2() -> (QueryEnv, LogicalPlan, VarSet) {
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (cities, c) = qb.get(m.ids.cities, "c");
        let (matd, cm) = qb.mat(cities, c, m.ids.city_mayor, "cm");
        let pred = qb.eq_const(cm, m.ids.person_name, Value::str("Joe"));
        let q = qb.select(matd, pred);
        (qb.into_env(), q, VarSet::single(c))
    }

    /// Figure 2 as the ZQL front end builds it: cities whose mayor shares
    /// their country's president's name, population over 1,500,000.
    fn figure2() -> (QueryEnv, LogicalPlan, VarSet) {
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (cities, c) = qb.get(m.ids.cities, "c");
        let (p, cm) = qb.mat(cities, c, m.ids.city_mayor, "cm");
        let (p, cc) = qb.mat(p, c, m.ids.city_country, "cc");
        let (p, pres) = qb.mat(p, cc, m.ids.country_president, "pres");
        let name = |v| qb.attr(v, m.ids.person_name);
        let same_name = qb.term(name(cm), CmpOp::Eq, name(pres));
        let population = qb.attr(c, m.ids.city_population);
        let big = qb.term(population, CmpOp::Gt, Operand::Const(Value::Int(1_500_000)));
        let pred = qb.conj(vec![same_name, big]);
        let q = qb.select(p, pred);
        (qb.into_env(), q, VarSet::single(c))
    }

    #[test]
    fn figure2_space_is_counted_and_refused_unbuilt() {
        let (env, q, vars) = figure2();
        let opt = OpenOodb::with_config(&env, OptimizerConfig::all_rules());
        let report = opt
            .audit(&q, vars, None, EnumLimits::default())
            .expect("feasible");
        assert_eq!(report.plan_count, 27_408);
        assert!(report.truncated, "over the default bound");
        assert!(report.plans.is_empty(), "nothing built");
        assert!(!report.sound());
    }

    #[test]
    fn full_rule_set_proves_termination() {
        let (env, _, _) = query2();
        let opt = OpenOodb::with_config(&env, OptimizerConfig::all_rules());
        let proof = opt.prove_rules_terminate().expect("rule set terminates");
        assert_eq!(proof.rules, 12, "all twelve transforms signed");
        assert!(proof.edges > 0);
        // The swap/push rules feed each other: safe cycles exist.
        assert!(proof.cyclic_rules > 0);
    }

    #[test]
    fn audit_query2_winner_is_cost_minimal_over_the_space() {
        let (env, q, vars) = query2();
        let opt = OpenOodb::with_config(&env, OptimizerConfig::all_rules());
        let report = opt
            .audit(&q, vars, None, EnumLimits::default())
            .expect("feasible");
        assert!(!report.truncated, "query 2 space fits default limits");
        assert!(
            report.plan_count >= 2,
            "collapse + at least one assembly-family plan, got {}",
            report.plan_count
        );
        assert!(
            report.cost_minimal,
            "winner {} vs best {}",
            report.winner_cost, report.best_cost
        );
        assert!(
            report.interval_diags.is_empty(),
            "sound estimates on every plan: {:?}",
            report.interval_diags
        );
        assert!(report.sound());
    }

    #[test]
    fn audit_truncation_is_reported_not_hidden() {
        let (env, q, vars) = query2();
        let opt = OpenOodb::with_config(&env, OptimizerConfig::all_rules());
        let report = opt
            .audit(&q, vars, None, EnumLimits { max_plans: 1 })
            .expect("feasible");
        assert!(report.truncated);
        assert_eq!(report.plan_count, 8, "counted, not built");
        assert!(report.plans.is_empty());
        assert!(!report.cost_minimal, "a cut space proves nothing");
        assert!(!report.sound());
    }

    /// An injected regression: a rule claiming to mint fresh join
    /// predicates forever. The termination proof must fail with a
    /// witness naming it.
    struct Runaway;
    impl<'e> TransformRule<OodbModel<'e>> for Runaway {
        fn name(&self) -> &'static str {
            "runaway-join-inflation"
        }
        fn apply(
            &self,
            _m: &OodbModel<'e>,
            _memo: &Memo<OodbModel<'e>>,
            _e: &Expr<OodbModel<'e>>,
            _out: &mut Rewrites<oodb_algebra::LogicalOp>,
        ) {
        }
        fn signature(&self) -> RuleSignature {
            RuleSignature {
                consumes: &["Join"],
                produces: &["Join"],
                generative: true,
                reads_inputs: true,
            }
        }
    }

    #[test]
    fn injected_generative_rule_fails_with_rendered_witness() {
        let (env, _, _) = query2();
        let config = OptimizerConfig::all_rules();
        let mut rules = rule_set(&config);
        rules.transforms.push(Box::new(Runaway));
        let opt = OpenOodb::with_rule_set(&env, CostParams::default(), config, rules);
        let w = opt
            .prove_rules_terminate()
            .expect_err("generative cycle must be caught");
        let rendered = w.to_string();
        assert!(
            rendered.contains("runaway-join-inflation") && rendered.contains("Join"),
            "witness names the rule and the connecting shape: {rendered}"
        );
        assert_eq!(w.rules.first(), w.rules.last(), "witness closes the loop");
    }

    /// A rule that declares nothing about itself is rejected outright.
    struct Undeclared;
    impl<'e> TransformRule<OodbModel<'e>> for Undeclared {
        fn name(&self) -> &'static str {
            "undeclared"
        }
        fn apply(
            &self,
            _m: &OodbModel<'e>,
            _memo: &Memo<OodbModel<'e>>,
            _e: &Expr<OodbModel<'e>>,
            _out: &mut Rewrites<oodb_algebra::LogicalOp>,
        ) {
        }
    }

    #[test]
    fn unsigned_rule_fails_the_proof() {
        let (env, _, _) = query2();
        let config = OptimizerConfig::all_rules();
        let mut rules = rule_set(&config);
        rules.transforms.push(Box::new(Undeclared));
        let opt = OpenOodb::with_rule_set(&env, CostParams::default(), config, rules);
        let w = opt.prove_rules_terminate().expect_err("unsigned rejected");
        assert_eq!(w.rules, vec!["undeclared"]);
        assert!(w.to_string().contains("no signature"), "{w}");
    }

    #[test]
    fn confluence_on_select_mat_get_critical_pair() {
        let (env, q, vars) = query2();
        let report = check_confluence(
            &env,
            CostParams::default(),
            &OptimizerConfig::all_rules(),
            &q,
            vars,
            12,
        );
        assert_eq!(report.runs.len(), 12);
        assert!(report.confluent(), "{:?}", report.runs);
    }

    #[test]
    fn confluence_on_select_over_join_critical_pair() {
        // Select over Join: SelectJoinPush, SelectIntoJoin, JoinCommute
        // and SelectSplit all overlap here.
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (cities, c) = qb.get(m.ids.cities, "c");
        let (people, p) = qb.get(m.ids.person_extent, "p");
        let jp = qb.ref_eq(c, m.ids.city_mayor, p);
        let joined = qb.join(cities, people, jp);
        let sel = qb.eq_const(p, m.ids.person_name, Value::str("Joe"));
        let q = qb.select(joined, sel);
        let vars = VarSet::single(c);
        let env = qb.into_env();
        let report = check_confluence(
            &env,
            CostParams::default(),
            &OptimizerConfig::all_rules(),
            &q,
            vars,
            12,
        );
        assert!(report.confluent(), "{:?}", report.runs);
    }
}
