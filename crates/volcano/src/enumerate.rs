//! Exhaustive plan-space enumeration — the search oracle.
//!
//! [`Optimizer::optimize_group`] memoizes one winner per goal; nothing in
//! that path proves the winner is actually the cheapest member of the plan
//! space the memo encodes. This module walks the *same* candidate
//! generation (implementation rules filtered by property satisfaction,
//! plus enforcers) but keeps **every** feasible plan instead of the
//! cheapest, by cartesian-producting child plan sets. On small queries —
//! enumeration is exponential by nature, so [`EnumLimits`] bounds the memo
//! size and the plan count — the result is an independent oracle: the
//! winner must be cost-minimal over the enumerated set, and every
//! enumerated plan must execute to the same bytes.
//!
//! Goals are *not* memoized across the walk: a goal reached through
//! different enforcer stacks can legitimately enumerate different plan
//! sets (the cycle guard cuts different recursions), and reusing one
//! goal's set for the other would silently drop plans. The limits keep
//! the repeated work affordable.

use crate::inputs::Inputs;
use crate::memo::GroupId;
use crate::model::OptModel;
use crate::search::{Candidates, GoalKey, Optimizer, PlanNode};

/// Bounds on the enumeration. Exceeding any of them stops the walk and
/// marks the result [`Enumeration::truncated`] — an oracle that silently
/// covered only part of the space would be worse than none.
#[derive(Clone, Copy, Debug)]
pub struct EnumLimits {
    /// Maximum memo groups for the walk to start at all.
    pub max_groups: usize,
    /// Maximum memo expressions for the walk to start at all.
    pub max_exprs: usize,
    /// Maximum plan nodes constructed across the whole walk.
    pub max_plans: usize,
}

impl Default for EnumLimits {
    fn default() -> Self {
        EnumLimits {
            max_groups: 256,
            max_exprs: 2048,
            max_plans: 200_000,
        }
    }
}

/// The enumerated plan space for one goal.
pub struct Enumeration<M: OptModel> {
    /// Every feasible physical plan delivering the goal's properties.
    pub plans: Vec<PlanNode<M>>,
    /// True when a limit cut the walk short: `plans` is then a prefix of
    /// the space, and oracle assertions against it prove nothing.
    pub truncated: bool,
}

/// Walk state shared across the recursion.
struct EnumState {
    limits: EnumLimits,
    nodes_built: usize,
    truncated: bool,
}

impl EnumState {
    /// Accounts for one constructed plan node; false once over budget.
    fn charge(&mut self) -> bool {
        if self.nodes_built >= self.limits.max_plans {
            self.truncated = true;
            return false;
        }
        self.nodes_built += 1;
        true
    }
}

impl<M: OptModel> Optimizer<'_, M> {
    /// Exhaustively enumerates every physical plan for `group` that
    /// delivers `props`, over the memo as currently explored (callers run
    /// [`Optimizer::explore_all`] first so the logical space is at
    /// fixpoint). Candidate generation mirrors
    /// [`Optimizer::optimize_group`] exactly — same implementation rules,
    /// same property filter, same enforcer handling — so the enumerated
    /// set is precisely the space the search chose its winner from —
    /// up to `limits`, past which the result says it was truncated.
    pub fn enumerate_bounded(
        &mut self,
        group: GroupId,
        props: M::PProps,
        limits: EnumLimits,
    ) -> Enumeration<M> {
        let mut state = EnumState {
            limits,
            nodes_built: 0,
            truncated: false,
        };
        if self.memo.group_count() > limits.max_groups || self.memo.expr_count() > limits.max_exprs
        {
            return Enumeration {
                plans: Vec::new(),
                truncated: true,
            };
        }
        let mut stack = Vec::new();
        let plans = self.enum_goal(group, props, &mut stack, &mut state);
        Enumeration {
            plans,
            truncated: state.truncated,
        }
    }

    /// All plans for one goal. `stack` holds the open goal keys: a goal
    /// that recursively requires itself contributes no *finite* plan
    /// through that recursion, so revisits return the empty set — the
    /// enumeration analog of the search's `in_progress` cycle guard.
    fn enum_goal(
        &mut self,
        group: GroupId,
        props: M::PProps,
        stack: &mut Vec<GoalKey>,
        state: &mut EnumState,
    ) -> Vec<PlanNode<M>> {
        let group = self.memo.find(group);
        let key = self.goal_key(group, &props);
        if stack.contains(&key) {
            return Vec::new();
        }
        stack.push(key);
        let mut buf = self.take_candidates();
        let plans = self.enum_candidates(group, &props, stack, state, &mut buf);
        self.put_candidates(buf);
        stack.pop();
        plans
    }

    /// The body of [`Self::enum_goal`], with the goal's candidate buffers.
    /// Stops at the first truncation: what it has built so far is all the
    /// walk returns.
    fn enum_candidates(
        &mut self,
        group: GroupId,
        props: &M::PProps,
        stack: &mut Vec<GoalKey>,
        state: &mut EnumState,
        buf: &mut Candidates<M>,
    ) -> Vec<PlanNode<M>> {
        let mut plans: Vec<PlanNode<M>> = Vec::new();

        for member in 0..self.memo.group_exprs(group).len() {
            let e = self.memo.group_exprs(group)[member];
            for k in self.impl_rules(e) {
                let rule = self.impl_rule(k);
                let expr = self.memo.expr(e);
                rule.implementations(self.model(), &self.memo, expr, props, &mut buf.implemented);
                'cands: for cand in buf.implemented.drain(..) {
                    if !self.model().satisfies(props, &cand.delivers) {
                        continue;
                    }
                    let local = self.price(&cand.op, cand.inputs.each_ref().map(|(g, _)| *g));
                    // Child plan sets; any empty set kills the candidate.
                    let mut child_sets: Vec<Vec<PlanNode<M>>> =
                        Vec::with_capacity(cand.inputs.len());
                    for (cg, cp) in &cand.inputs {
                        let set = self.enum_goal(*cg, cp.clone(), stack, state);
                        if state.truncated {
                            return plans;
                        }
                        if set.is_empty() {
                            continue 'cands;
                        }
                        child_sets.push(set);
                    }
                    // Cartesian product over child alternatives.
                    let mut idx = vec![0usize; child_sets.len()];
                    loop {
                        if !state.charge() {
                            return plans;
                        }
                        plans.push(PlanNode {
                            op: cand.op.clone(),
                            children: idx
                                .iter()
                                .zip(&child_sets)
                                .map(|(&i, set)| set[i].clone())
                                .collect(),
                            local_cost: local,
                            delivers: cand.delivers.clone(),
                        });
                        // Odometer increment; done when it wraps around.
                        let mut done = true;
                        for (i, set) in idx.iter_mut().zip(&child_sets) {
                            *i += 1;
                            if *i < set.len() {
                                done = false;
                                break;
                            }
                            *i = 0;
                        }
                        if done {
                            break;
                        }
                    }
                }
            }
        }

        // Enforcers: every plan for the weaker goal, wrapped.
        for enf in &self.rules().enforcers {
            enf.enforce(self.model(), &self.memo, group, props, &mut buf.enforced);
            for ec in buf.enforced.drain(..) {
                if ec.input_props == *props {
                    continue; // no progress: the search skips these too
                }
                if !self.model().satisfies(props, &ec.delivers) {
                    continue;
                }
                let inner = self.enum_goal(group, ec.input_props.clone(), stack, state);
                if state.truncated {
                    return plans;
                }
                if inner.is_empty() {
                    continue;
                }
                let local = self.price(&ec.op, Inputs::one(group));
                for p in inner {
                    if !state.charge() {
                        return plans;
                    }
                    plans.push(PlanNode {
                        op: ec.op.clone(),
                        children: vec![p],
                        local_cost: local,
                        delivers: ec.delivers.clone(),
                    });
                }
            }
        }
        plans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CostValue, RuleSet};
    use crate::search::SearchConfig;
    use crate::toy::{toy_rules, Toy, ToyOp, ToySort};

    fn three_table_setup<'a>(
        model: &'a Toy,
        rules: &'a RuleSet<Toy>,
    ) -> (Optimizer<'a, Toy>, GroupId) {
        let mut opt = Optimizer::new(model, rules, SearchConfig::default());
        let a = opt.memo.insert(model, ToyOp::Table(0), vec![]).0;
        let b = opt.memo.insert(model, ToyOp::Table(1), vec![]).0;
        let c = opt.memo.insert(model, ToyOp::Table(2), vec![]).0;
        let (ab, _, _) = opt.memo.insert(model, ToyOp::Join, vec![a, b]);
        let (root, _, _) = opt.memo.insert(model, ToyOp::Join, vec![ab, c]);
        (opt, root)
    }

    fn min_cost(en: &Enumeration<Toy>) -> f64 {
        let costs = en.plans.iter().map(|p| p.total_cost().total());
        costs.min_by(f64::total_cmp).expect("non-empty space")
    }

    #[test]
    fn enumeration_covers_the_space_and_contains_the_winner() {
        let model = Toy::default();
        let rules = toy_rules();
        let (mut opt, root) = three_table_setup(&model, &rules);
        let winner = opt.run(root, ToySort::default()).expect("winner");
        let en = opt.enumerate_bounded(root, ToySort::default(), EnumLimits::default());
        assert!(!en.truncated);
        // Root group: 6 join exprs (each table against the join of the
        // other two, both orders). Table 0 satisfies an unsorted goal two
        // ways (heap scan + index scan) and appears once per plan; the
        // inner pair adds another 2× for its own operand orders:
        // 6 × 2 × 2 = 24 complete plans.
        assert_eq!(en.plans.len(), 24, "3-table join space");
        let min = min_cost(&en);
        let w = winner.total_cost().total();
        assert!(
            (w - min).abs() <= 1e-9 * min.max(1.0),
            "winner {w} must be minimal over the space (min {min})"
        );
        // And strictly: no enumerated plan beats the winner.
        assert!(en.plans.iter().all(|p| p.total_cost().total() >= w - 1e-9));
    }

    #[test]
    fn enforced_goals_enumerate_wrapped_plans() {
        let model = Toy::default();
        let rules = toy_rules();
        let (mut opt, root) = three_table_setup(&model, &rules);
        opt.explore_all();
        let en = opt.enumerate_bounded(root, ToySort { sorted: true }, EnumLimits::default());
        assert!(!en.truncated);
        // Every unsorted plan appears once wrapped in the sort enforcer
        // (the toy model has no sorted join, so no other source exists).
        assert_eq!(en.plans.len(), 24);
        let sorted_cost = opt
            .optimize_group(root, &ToySort { sorted: true })
            .expect("sorted winner");
        let min = min_cost(&en);
        assert!((sorted_cost.total() - min).abs() <= 1e-9 * min.max(1.0));
    }

    #[test]
    fn plan_budget_truncates_explicitly() {
        let model = Toy::default();
        let rules = toy_rules();
        let (mut opt, root) = three_table_setup(&model, &rules);
        opt.explore_all();
        let en = opt.enumerate_bounded(
            root,
            ToySort::default(),
            EnumLimits {
                max_plans: 3,
                ..Default::default()
            },
        );
        assert!(en.truncated, "cut walks must say so");
        assert!(en.plans.len() <= 3);
    }

    #[test]
    fn enforcers_price_nothing_past_truncation_or_over_an_empty_walk() {
        use crate::search::tests::{Counted, Resort, Unordered};
        use crate::toy::ToyPOp;
        let sorted = ToySort { sorted: true };
        let model = Counted::default();
        let rules = RuleSet {
            transforms: vec![],
            impls: vec![Box::new(Unordered) as Box<dyn crate::ImplRule<Counted>>],
            enforcers: vec![Box::new(Resort), Box::new(Resort)],
        };
        let mut opt = Optimizer::new(&model, &rules, SearchConfig::default());
        let t = opt.memo.insert(&model, ToyOp::Table(0), []).0;
        let budget = EnumLimits {
            max_plans: 0,
            ..Default::default()
        };
        let en = opt.enumerate_bounded(t, sorted, budget);
        assert!(en.truncated && en.plans.is_empty());
        // The scan under the first Sort is priced, then its plan node is
        // over budget: neither that Sort nor the second enforcer's walk
        // is priced after.
        assert_eq!(model.priced.take(), [ToyPOp::Scan(0)]);

        // Without implementation rules the inner walk is empty, untruncated.
        let rules = RuleSet {
            impls: vec![],
            ..rules
        };
        let mut opt = Optimizer::new(&model, &rules, SearchConfig::default());
        let t = opt.memo.insert(&model, ToyOp::Table(0), []).0;
        let en = opt.enumerate_bounded(t, sorted, EnumLimits::default());
        assert!(!en.truncated && en.plans.is_empty());
        assert_eq!(model.priced.take(), []);
    }

    #[test]
    fn oversized_memo_refuses_to_enumerate() {
        let model = Toy::default();
        let rules = toy_rules();
        let (mut opt, root) = three_table_setup(&model, &rules);
        opt.explore_all();
        let en = opt.enumerate_bounded(
            root,
            ToySort::default(),
            EnumLimits {
                max_groups: 1,
                ..Default::default()
            },
        );
        assert!(en.truncated);
        assert!(en.plans.is_empty());
    }
}
