//! The top-level optimizer driver.
//!
//! [`OpenOodb`] takes a simplified logical plan, seeds the Volcano memo,
//! runs exhaustive exploration plus goal-directed search, and returns an
//! annotated [`PhysicalPlan`] with search statistics.

use crate::config::OptimizerConfig;
use crate::cost::{Cost, CostParams};
use crate::model::OodbModel;
use crate::rules::rule_set;
use oodb_algebra::{
    LogicalPlan, LogicalProps, PhysProps, PhysicalOp, PhysicalPlan, PlanEst, QueryEnv, VarSet,
};
use volcano::{
    GroupId, Inputs, Memo, OptModel, Optimizer, PlanNode, RuleSet, SearchConfig, SearchStats,
    TooManyInputs,
};

/// Result of one optimization run.
#[derive(Clone, Debug)]
pub struct OptimizeOutcome {
    /// The winning plan, annotated with per-node cardinality and cost
    /// estimates.
    pub plan: PhysicalPlan,
    /// Total estimated execution cost.
    pub cost: Cost,
    /// Search statistics (for the paper's optimization-effort columns).
    pub stats: SearchStats,
    /// Static-verifier findings on the winning plan (and, when
    /// [`OptimizerConfig::verify_search`] is set, on every logical
    /// expression left in the memo). Empty on a sound run; never a panic.
    pub diagnostics: Vec<oodb_verify::Diagnostic>,
}

/// Outcome of a deadline-bounded optimization ([`OpenOodb::optimize_within`]).
#[derive(Clone, Debug)]
pub enum BoundedOutcome {
    /// The search finished (possibly just under the wire) with a winner.
    /// Boxed: the outcome (plan + stats + diagnostics) dwarfs the other
    /// variants, and this enum rides in return position.
    Complete(Box<OptimizeOutcome>),
    /// The deadline expired before a winner was found; the caller should
    /// degrade (greedy fallback) rather than report infeasibility.
    DeadlineExpired,
    /// No feasible plan exists under the current rule configuration —
    /// a real infeasibility, not a timeout — or the plan has a node over
    /// more than two inputs, which no operator takes.
    Infeasible,
}

/// The Open OODB optimizer: environment + parameters + configuration.
pub struct OpenOodb<'e> {
    pub(crate) model: OodbModel<'e>,
    pub(crate) rules: RuleSet<OodbModel<'e>>,
}

impl<'e> OpenOodb<'e> {
    /// Builds the optimizer for a query environment.
    pub fn new(env: &'e QueryEnv, params: CostParams, config: OptimizerConfig) -> Self {
        let rules = rule_set(&config);
        OpenOodb {
            model: OodbModel::new(env, params, config),
            rules,
        }
    }

    /// Builds with default device parameters.
    pub fn with_config(env: &'e QueryEnv, config: OptimizerConfig) -> Self {
        Self::new(env, CostParams::default(), config)
    }

    /// Builds with a caller-supplied rule set — the extensibility hook:
    /// start from [`crate::rules::rule_set`] and push additional
    /// transformation rules, implementation rules, or enforcers ("a
    /// powerful research workbench on which to try new ideas").
    pub fn with_rule_set(
        env: &'e QueryEnv,
        params: CostParams,
        config: OptimizerConfig,
        rules: RuleSet<OodbModel<'e>>,
    ) -> Self {
        OpenOodb {
            model: OodbModel::new(env, params, config),
            rules,
        }
    }

    /// Attaches an observed-selectivity overlay from the feedback loop:
    /// every estimate for an overridden predicate comes from the observed
    /// fraction instead of catalog statistics. The catalog (and the epoch
    /// snapshot it came from) is never mutated.
    pub fn with_overlay(mut self, overlay: std::sync::Arc<oodb_algebra::StatsOverlay>) -> Self {
        self.model = self.model.with_overlay(overlay);
        self
    }

    /// The model (for estimate inspection).
    pub fn model(&self) -> &OodbModel<'e> {
        &self.model
    }

    /// Optimizes a logical plan. `result_vars` is the set of variables the
    /// caller needs delivered in memory at the root (the query's result
    /// set; pass `VarSet::EMPTY` for queries whose root projection decides
    /// for itself).
    ///
    /// Returns `None` when no feasible plan exists (never the case with
    /// the full rule set).
    pub fn optimize(&self, plan: &LogicalPlan, result_vars: VarSet) -> Option<OptimizeOutcome> {
        self.optimize_ordered(plan, result_vars, None)
    }

    /// Like [`OpenOodb::optimize`], with an optional required result order
    /// (the sort-order physical property extension). The winning plan
    /// delivers tuples ordered by the given attribute — via an ordered
    /// index sweep, order-preserving operators, or an explicit sort
    /// enforcer, whichever costs least.
    pub fn optimize_ordered(
        &self,
        plan: &LogicalPlan,
        result_vars: VarSet,
        order: Option<oodb_algebra::SortSpec>,
    ) -> Option<OptimizeOutcome> {
        match self.optimize_within(plan, result_vars, order, None) {
            BoundedOutcome::Complete(out) => Some(*out),
            BoundedOutcome::DeadlineExpired | BoundedOutcome::Infeasible => None,
        }
    }

    /// Like [`OpenOodb::optimize_ordered`], bounded by an absolute
    /// deadline. The Volcano search checks the deadline at sweep and goal
    /// boundaries and never memoizes past expiry, so a plan that *is*
    /// returned was assembled only from fully-solved goals. Distinguishes
    /// timeout from genuine infeasibility so callers can degrade to the
    /// greedy baseline instead of failing.
    pub fn optimize_within(
        &self,
        plan: &LogicalPlan,
        result_vars: VarSet,
        order: Option<oodb_algebra::SortSpec>,
        deadline: Option<std::time::Instant>,
    ) -> BoundedOutcome {
        self.search(plan, result_vars, order, deadline, false).0
    }

    /// Like [`OpenOodb::optimize_ordered`], additionally returning a
    /// rendered goal-level search trace — the live version of the paper's
    /// Figure 11 "search state" view. Each line shows the goal's required
    /// physical properties against the logical expression being
    /// implemented, and which rule or enforcer won it.
    pub fn optimize_traced(
        &self,
        plan: &LogicalPlan,
        result_vars: VarSet,
        order: Option<oodb_algebra::SortSpec>,
    ) -> Option<(OptimizeOutcome, Vec<String>)> {
        match self.search(plan, result_vars, order, None, true) {
            (BoundedOutcome::Complete(out), lines) => Some((*out, lines)),
            _ => None,
        }
    }

    /// The one search every entry point runs: seed the memo, search for
    /// the root goal, annotate and verify the winner. With `trace`, also
    /// the goals it opened and solved, one rendered line each.
    fn search(
        &self,
        plan: &LogicalPlan,
        result_vars: VarSet,
        order: Option<oodb_algebra::SortSpec>,
        deadline: Option<std::time::Instant>,
        trace: bool,
    ) -> (BoundedOutcome, Vec<String>) {
        let search = SearchConfig {
            prune: self.model.config.prune,
            deadline,
            trace,
        };
        let mut opt = Optimizer::new(&self.model, &self.rules, search);
        let Ok(root) = seed(&mut opt.memo, &self.model, plan) else {
            return (BoundedOutcome::Infeasible, Vec::new());
        };
        let props = PhysProps {
            in_memory: self.model.objify(result_vars),
            order,
        };
        let winner = opt.run(root, props);
        let lines = self.render_trace(&opt);
        let Some(node) = winner else {
            let why = if opt.stats.deadline_hit {
                BoundedOutcome::DeadlineExpired
            } else {
                BoundedOutcome::Infeasible
            };
            return (why, lines);
        };
        let cost = node.total_cost();
        let plan = merge_assemblies(self.annotate(&node));
        let mut diagnostics = oodb_verify::verify_physical(self.model.env, &plan, props);
        if self.model.config.verify_search {
            diagnostics.extend(verify_search_space(&opt.memo, self.model.env));
        }
        let outcome = OptimizeOutcome {
            plan,
            cost,
            stats: opt.stats,
            diagnostics,
        };
        (BoundedOutcome::Complete(Box::new(outcome)), lines)
    }

    /// One line per goal event a traced search recorded.
    fn render_trace(&self, opt: &Optimizer<'_, OodbModel<'e>>) -> Vec<String> {
        let env = self.model.env;
        let render_props = |p: &PhysProps| -> String {
            let vars: Vec<String> = p
                .in_memory
                .iter()
                .map(|v| env.scopes.var(v).label.clone())
                .collect();
            let mut text = if vars.is_empty() {
                "{}".to_string()
            } else {
                format!("{{{}}} in memory", vars.join(", "))
            };
            if let Some(key) = p.order {
                let (var, field) = (env.scopes.var(key.var), env.schema.field(key.field));
                text += &format!(" ordered by {}.{}", var.label, field.name);
            }
            text
        };
        let lines = opt.trace.iter().map(|ev| match ev {
            volcano::TraceEvent::GoalOpened {
                group,
                props,
                depth,
            } => {
                let anchor = opt.memo.group_exprs(*group)[0];
                format!(
                    "{}goal: {} requiring {}",
                    "  ".repeat(*depth),
                    oodb_algebra::display::render_logical_op(env, &opt.memo.expr(anchor).op),
                    render_props(props),
                )
            }
            volcano::TraceEvent::GoalSolved {
                depth,
                winner,
                cost,
                ..
            } => match (winner, cost) {
                (Some(rule), Some(c)) => {
                    format!("{}  -> won by {rule} ({c:.3} s)", "  ".repeat(*depth))
                }
                _ => format!("{}  -> infeasible", "  ".repeat(*depth)),
            },
        });
        lines.collect()
    }

    /// Explores the memo without optimizing and returns every logical
    /// alternative of the root group as a tree (children anchored at each
    /// group's first expression — the original formulation). Used by the
    /// figure reproductions to show what the transformation rules
    /// generated (e.g. the Mat→Join form of Figure 4).
    pub fn explore_alternatives(&self, plan: &LogicalPlan) -> (Vec<LogicalPlan>, SearchStats) {
        let search = SearchConfig {
            prune: self.model.config.prune,
            ..Default::default()
        };
        let mut opt = Optimizer::new(&self.model, &self.rules, search);
        let Ok(root) = seed(&mut opt.memo, &self.model, plan) else {
            return (Vec::new(), opt.stats);
        };
        opt.explore_all();
        let memo = &opt.memo;
        let alts = memo
            .group_exprs(root)
            .iter()
            .map(|&e| extract_anchored(memo, e))
            .collect();
        (alts, opt.stats)
    }

    /// Converts a search-engine plan into an annotated [`PhysicalPlan`],
    /// recomputing per-node cardinalities through the shared estimator.
    pub(crate) fn annotate(&self, node: &PlanNode<OodbModel<'e>>) -> PhysicalPlan {
        annotate_tree(&self.model, node, |n| (&n.op, &n.children)).0
    }
}

/// Lints every live logical expression in a searched memo — the
/// `verify_search` debug mode. Each expression is extracted as a tree
/// (children anchored at each group's first expression, which exploration
/// has already linted transitively) and run through the well-formedness
/// linter, so an unsound transformation rule is caught even when its
/// rewrite loses costing and never becomes the winner.
pub fn verify_search_space<'e>(
    memo: &Memo<OodbModel<'e>>,
    env: &QueryEnv,
) -> Vec<oodb_verify::Diagnostic> {
    let mut out = Vec::new();
    for e in memo.live_exprs() {
        let tree = extract_anchored(memo, e);
        out.extend(oodb_verify::lint_logical(env, &tree));
    }
    out
}

/// Reconstructs a logical tree from a memo expression, descending into
/// each child group's first (anchor) expression. Exposed for the
/// rule-soundness harness, which replays individual rewrites as trees.
pub fn extract_anchored<'e>(memo: &Memo<OodbModel<'e>>, e: volcano::ExprId) -> LogicalPlan {
    let expr = memo.expr(e);
    LogicalPlan {
        op: expr.op.clone(),
        children: expr
            .children
            .iter()
            .map(|&c| {
                let anchor = memo.group_exprs(c)[0];
                extract_anchored(memo, anchor)
            })
            .collect(),
    }
}

/// Seeds the memo with a logical plan tree, returning the root group.
/// Refuses a node with more than two inputs, which no operator takes.
pub fn seed<'e>(
    memo: &mut Memo<OodbModel<'e>>,
    model: &OodbModel<'e>,
    plan: &LogicalPlan,
) -> Result<GroupId, TooManyInputs> {
    let children = Inputs::try_from(plan.children.as_slice())?;
    let children = children.try_map(|c| seed(memo, model, c))?;
    Ok(memo.insert(model, plan.op.clone(), children).0)
}

/// Collapses chains of adjacent single-target assemblies into one
/// multi-target assembly operator, matching the paper's figure notation
/// ("Assembly e.dept, e.dept.plant, e.job"). Costs are summed; semantics
/// and totals are unchanged.
pub fn merge_assemblies(plan: PhysicalPlan) -> PhysicalPlan {
    let mut node = PhysicalPlan {
        op: plan.op,
        children: plan.children.into_iter().map(merge_assemblies).collect(),
        est: plan.est,
    };
    if let PhysicalOp::Assembly { targets, window } = &node.op {
        if node.children.len() == 1 {
            if let PhysicalOp::Assembly {
                targets: inner_targets,
                window: inner_window,
            } = &node.children[0].op
            {
                if window == inner_window {
                    // Inner materializes first: its targets lead.
                    let mut merged = inner_targets.clone();
                    merged.extend(targets.iter().copied());
                    let inner = node.children.remove(0);
                    let est = PlanEst {
                        out_card: node.est.out_card,
                        io_s: node.est.io_s + inner.est.io_s,
                        cpu_s: node.est.cpu_s + inner.est.cpu_s,
                    };
                    node = PhysicalPlan {
                        op: PhysicalOp::Assembly {
                            targets: merged,
                            window: *window,
                        },
                        children: inner.children,
                        est,
                    };
                }
            }
        }
    }
    node
}

/// Convenience: the total estimated cost of an already-annotated plan.
pub fn plan_cost(plan: &PhysicalPlan) -> Cost {
    Cost::new(plan.total_io_s(), plan.total_cpu_s())
}

/// The degradation path taken when the cost-based search runs out of
/// deadline: the ObjectStore-style greedy plan, priced by `model` — the
/// search's own, so a degraded plan and a searched one are priced alike —
/// and linted by the static verifier so a degraded answer is still a
/// *checked* answer. Returns `None` for shapes outside the greedy
/// strategy's repertoire (explicit joins, set operators).
pub fn greedy_fallback(
    model: &OodbModel<'_>,
    plan: &LogicalPlan,
    result_vars: VarSet,
) -> Option<(PhysicalPlan, Cost, Vec<oodb_verify::Diagnostic>)> {
    let phys = crate::greedy::greedy_plan(model, plan)?;
    let cost = plan_cost(&phys);
    let props = PhysProps::in_memory(model.objify(result_vars));
    let diagnostics = oodb_verify::verify_physical(model.env, &phys, props);
    Some((phys, cost, diagnostics))
}

/// (Re)annotates a hand-built physical plan bottom-up through the shared
/// estimator — used by the greedy baseline and by tests comparing
/// hand-written plans against optimizer output.
pub fn annotate_physical(
    model: &OodbModel<'_>,
    plan: &PhysicalPlan,
) -> (PhysicalPlan, LogicalProps) {
    annotate_tree(model, plan, |p| (&p.op, &p.children))
}

/// The one annotation walk. `parts` names a node's algorithm and inputs,
/// so a plan the search engine returned and a hand-built one take it alike.
fn annotate_tree<T>(
    model: &OodbModel<'_>,
    node: &T,
    parts: fn(&T) -> (&PhysicalOp, &[T]),
) -> (PhysicalPlan, LogicalProps) {
    let (op, inputs) = parts(node);
    let (children, input_props): (Vec<_>, Vec<_>) = inputs
        .iter()
        .map(|c| annotate_tree(model, c, parts))
        .unzip();
    let input_props: Vec<&LogicalProps> = input_props.iter().collect();
    let props = model.phys_props(op, &input_props);
    let cost = model.cost(op, &input_props);
    let est = PlanEst {
        out_card: props.card,
        io_s: cost.io_s,
        cpu_s: cost.cpu_s,
    };
    let plan = PhysicalPlan {
        op: op.clone(),
        children,
        est,
    };
    (plan, props)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_algebra::{PhysicalOp, QueryBuilder};
    use oodb_object::paper::paper_model;
    use oodb_object::Value;

    /// Query 2 (Figure 8): with the collapse rule, the whole query becomes
    /// one index scan; its estimated cost is ~0.08 s.
    #[test]
    fn query2_collapses_to_index_scan() {
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (cities, c) = qb.get(m.ids.cities, "c");
        let (matd, cm) = qb.mat(cities, c, m.ids.city_mayor, "cm");
        let pred = qb.eq_const(cm, m.ids.person_name, Value::str("Joe"));
        let q = qb.select(matd, pred);
        let env = qb.into_env();

        let opt = OpenOodb::with_config(&env, OptimizerConfig::all_rules());
        let out = opt.optimize(&q, VarSet::single(c)).expect("feasible plan");
        assert!(
            matches!(out.plan.op, PhysicalOp::IndexScan { .. }),
            "expected a collapsed index scan, got:\n{}",
            oodb_algebra::display::render_physical(&env, &out.plan)
        );
        assert_eq!(out.plan.children.len(), 0);
        let total = out.cost.total();
        assert!(
            total < 0.5,
            "index plan should cost well under a second, got {total}"
        );
    }

    /// Query 2 without the collapse rule: filter over assembly over file
    /// scan, ~4 orders of magnitude slower (paper: 0.08 s vs 119.6 s).
    #[test]
    fn query2_without_collapse_degrades_by_orders_of_magnitude() {
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (cities, c) = qb.get(m.ids.cities, "c");
        let (matd, cm) = qb.mat(cities, c, m.ids.city_mayor, "cm");
        let pred = qb.eq_const(cm, m.ids.person_name, Value::str("Joe"));
        let q = qb.select(matd, pred);
        let env = qb.into_env();

        let fast = OpenOodb::with_config(&env, OptimizerConfig::all_rules())
            .optimize(&q, VarSet::single(c))
            .unwrap();
        let slow = OpenOodb::with_config(
            &env,
            OptimizerConfig::without(&[crate::config::rule_names::COLLAPSE_TO_INDEX_SCAN]),
        )
        .optimize(&q, VarSet::single(c))
        .unwrap();
        assert!(
            slow.cost.total() / fast.cost.total() > 100.0,
            "collapse should win by orders of magnitude: {} vs {}",
            fast.cost.total(),
            slow.cost.total()
        );
    }

    /// A plan node over three inputs is refused when the memo is seeded,
    /// and the search reports no plan rather than panicking.
    #[test]
    fn a_third_input_is_refused_not_searched() {
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (cities, c) = qb.get(m.ids.cities, "c");
        let env = qb.into_env();
        let union = |children: Vec<LogicalPlan>| LogicalPlan {
            op: oodb_algebra::LogicalOp::SetOp {
                kind: oodb_algebra::SetOpKind::Union,
            },
            children,
        };
        let model = OodbModel::new(&env, CostParams::default(), OptimizerConfig::all_rules());
        let two = union(vec![cities.clone(), cities.clone()]);
        assert!(seed(&mut Memo::new(), &model, &two).is_ok());
        let three = union(vec![cities.clone(), cities.clone(), cities]);
        let wide = union(vec![two, three]);
        assert_eq!(seed(&mut Memo::new(), &model, &wide), Err(TooManyInputs(3)));
        let opt = OpenOodb::with_config(&env, OptimizerConfig::all_rules());
        let searched = opt.optimize_within(&wide, VarSet::single(c), None, None);
        assert!(matches!(searched, BoundedOutcome::Infeasible));
        assert!(opt.explore_alternatives(&wide).0.is_empty());
    }

    /// Query 3 (Figure 10): requiring the mayor's age in the output makes
    /// the bare index scan infeasible; the winner is assembly (enforcer)
    /// over the index scan, NOT filter-over-assembly-over-scan.
    #[test]
    fn query3_uses_assembly_enforcer_over_index_scan() {
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (cities, c) = qb.get(m.ids.cities, "c");
        let (matd, cm) = qb.mat(cities, c, m.ids.city_mayor, "cm");
        let pred = qb.eq_const(cm, m.ids.person_name, Value::str("Joe"));
        let sel = qb.select(matd, pred);
        let q = qb.project(
            sel,
            vec![qb.attr(cm, m.ids.person_age), qb.attr(c, m.ids.city_name)],
        );
        let env = qb.into_env();

        let out = OpenOodb::with_config(&env, OptimizerConfig::all_rules())
            .optimize(&q, VarSet::EMPTY)
            .unwrap();
        let rendered = oodb_algebra::display::render_physical(&env, &out.plan);
        assert!(
            matches!(out.plan.op, PhysicalOp::AlgProject { .. }),
            "{rendered}"
        );
        assert!(
            matches!(out.plan.children[0].op, PhysicalOp::Assembly { .. }),
            "assembly enforcer expected:\n{rendered}"
        );
        assert!(
            matches!(
                out.plan.children[0].children[0].op,
                PhysicalOp::IndexScan { .. }
            ),
            "index scan underneath:\n{rendered}"
        );
        // Paper: 0.12 s vs 119.6 s for the no-enforcer alternative — three
        // orders of magnitude.
        assert!(out.cost.total() < 1.0, "got {}", out.cost.total());
    }
}
