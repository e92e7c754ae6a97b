//! Plan-space enumeration — the search oracle.
//!
//! [`Optimizer::optimize_group`] memoizes one winner per goal; nothing in
//! that path proves the winner is actually the cheapest member of the plan
//! space the memo encodes. This module walks each goal through the
//! search's own goal walk (`Optimizer::walk_goal`), so it sees exactly the
//! alternatives the search chose from, but keeps **every** alternative
//! instead of the cheapest. It counts a goal's plans once — an alternative has the
//! product of its inputs' counts — and builds plan *i* by unranking *i*
//! over those counts (Waas & Galindo-Legaria, SIGMOD 2000). The result is
//! an independent oracle: the winner must be cost-minimal over the listed
//! plans, and every one of them must execute to the same bytes.
//!
//! A goal met again while it is still being walked contributes no finite
//! plan through that recursion: it counts 0 there, and a goal whose walk
//! met such a cut is walked afresh on every visit, since its count may
//! depend on which goals were open. Every other goal is walked once.

use crate::fx::FxBuild;
use crate::inputs::Inputs;
use crate::memo::GroupId;
use crate::model::OptModel;
use crate::search::{Alternative, GoalKey, Optimizer, PlanNode, Visit};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// The bound on the enumeration. A space of more plans is counted and
/// refused whole, [`Enumeration::truncated`]: an oracle over part of the
/// space would prove nothing.
#[derive(Clone, Copy, Debug)]
pub struct EnumLimits {
    /// Most complete plans to build.
    pub max_plans: usize,
}

impl Default for EnumLimits {
    fn default() -> Self {
        EnumLimits { max_plans: 10_000 }
    }
}

/// The enumerated plan space for one goal.
pub struct Enumeration<M: OptModel> {
    /// Every physical plan delivering the goal's properties, in the walk's
    /// order; empty when the space is over the bound.
    pub plans: Vec<PlanNode<M>>,
    /// How many plans the space holds (saturating at `u64::MAX`).
    pub count: u64,
    /// True when `count` exceeds [`EnumLimits::max_plans`]: nothing was
    /// built, and oracle assertions against `plans` prove nothing.
    pub truncated: bool,
}

/// One walk of a goal: each alternative whose input goals all have plans,
/// with the walks of those inputs and its own plan count, and the goal's
/// plan count, their sum.
struct Space<M: OptModel> {
    alts: Vec<(Alternative<M>, Inputs<usize>, u64)>,
    count: u64,
}

/// The counting walk's state.
struct Spaces<M: OptModel> {
    /// Every goal walk so far, by position.
    walked: Vec<Space<M>>,
    /// The goals being walked (`None`) and the walk of each finished goal
    /// whose walk met no cut.
    goals: HashMap<GoalKey, Option<usize>, FxBuild>,
    /// Revisits of a goal still being walked, so far.
    cuts: usize,
}

impl<M: OptModel> Spaces<M> {
    /// Plan `i` of walk `s`: `i` picks an alternative, and what is left of
    /// it picks each input's plan as one mixed-radix digit, input 0 the
    /// least significant.
    fn unrank(&self, s: usize, mut i: u64) -> Option<PlanNode<M>> {
        for (alt, inputs, n) in &self.walked[s].alts {
            if i >= *n {
                i -= n;
                continue;
            }
            let children = inputs.iter().map(|&input| {
                let radix = self.walked[input].count;
                let digit = i % radix;
                i /= radix;
                self.unrank(input, digit)
            });
            return Some(alt.node(children.collect::<Option<_>>()?));
        }
        None
    }
}

/// The oracle's side of one goal's walk: every alternative, counted.
struct Counting<'s, M: OptModel> {
    spaces: &'s mut Spaces<M>,
    walk: Space<M>,
}

impl<M: OptModel> Visit<M> for Counting<'_, M> {
    type Input = usize;

    fn inputs(
        &mut self,
        opt: &mut Optimizer<'_, M>,
        goals: &Inputs<(GroupId, M::PProps)>,
        _local: Option<M::Cost>,
    ) -> Option<Inputs<usize>> {
        let walks = goals
            .each_ref()
            .try_map(|(g, p)| opt.count_goal(*g, p, self.spaces).ok_or(()));
        walks.ok()
    }

    fn accept(&mut self, inputs: Inputs<usize>, _: M::Cost, alt: impl FnOnce() -> Alternative<M>) {
        let walked = &self.spaces.walked;
        let count = inputs
            .iter()
            .fold(1, |n: u64, &s| n.saturating_mul(walked[s].count));
        self.walk.count = self.walk.count.saturating_add(count);
        self.walk.alts.push((alt(), inputs, count));
    }
}

impl<M: OptModel> Optimizer<'_, M> {
    /// Enumerates every physical plan for `group` that delivers `props`,
    /// over the memo as currently explored (callers run
    /// [`Optimizer::explore_all`] first so the logical space is at
    /// fixpoint): the space the search chose its winner from, counted, and
    /// built unless it holds more than `limits.max_plans` plans.
    pub fn enumerate_bounded(
        &mut self,
        group: GroupId,
        props: M::PProps,
        limits: EnumLimits,
    ) -> Enumeration<M> {
        // The oracle's walk is no search effort.
        let effort = self.stats;
        let mut spaces = Spaces {
            walked: Vec::new(),
            goals: HashMap::default(),
            cuts: 0,
        };
        let root = self.count_goal(group, &props, &mut spaces);
        self.stats = effort;
        let count = root.map_or(0, |s| spaces.walked[s].count);
        let truncated = count > limits.max_plans as u64;
        let plans = match root {
            Some(s) if !truncated => (0..count).filter_map(|i| spaces.unrank(s, i)).collect(),
            _ => Vec::new(),
        };
        Enumeration {
            plans,
            count,
            truncated,
        }
    }

    /// The walk of goal `(group, props)` in `spaces`, `None` when the goal
    /// has no plan here: none at all, or only through a goal still being
    /// walked.
    fn count_goal(
        &mut self,
        group: GroupId,
        props: &M::PProps,
        spaces: &mut Spaces<M>,
    ) -> Option<usize> {
        let group = self.memo.find(group);
        let key = self.goal_key(group, props);
        let s = match spaces.goals.entry(key) {
            Entry::Occupied(walked) => match *walked.get() {
                Some(s) => s,
                None => {
                    spaces.cuts += 1;
                    return None;
                }
            },
            Entry::Vacant(slot) => {
                slot.insert(None);
                let cuts = spaces.cuts;
                let walk = Space {
                    alts: Vec::new(),
                    count: 0,
                };
                let mut counting = Counting { spaces, walk };
                self.walk_goal(group, props, &mut counting);
                let walk = counting.walk;
                spaces.walked.push(walk);
                let s = spaces.walked.len() - 1;
                if spaces.cuts == cuts {
                    spaces.goals.insert(key, Some(s));
                } else {
                    spaces.goals.remove(&key);
                }
                s
            }
        };
        (spaces.walked[s].count > 0).then_some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CostValue, RuleSet};
    use crate::search::SearchConfig;
    use crate::toy::{toy_rules, Toy, ToyOp, ToyPOp, ToySort};

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

    /// A left-deep join over tables `0..n` (table 0 alone when `n` is 1),
    /// explored, and its root.
    fn left_deep<'a>(
        model: &'a Toy,
        rules: &'a RuleSet<Toy>,
        n: u32,
    ) -> (Optimizer<'a, Toy>, GroupId) {
        let mut opt = Optimizer::new(model, rules, SearchConfig::default());
        let mut root = opt.memo.insert(model, ToyOp::Table(0), []).0;
        for t in 1..n {
            let next = opt.memo.insert(model, ToyOp::Table(t), []).0;
            root = opt.memo.insert(model, ToyOp::Join, [root, next]).0;
        }
        opt.explore_all();
        (opt, root)
    }

    #[test]
    fn toy_plan_counts_are_pinned() {
        let (model, rules) = (Toy::default(), toy_rules());
        // (tables, plans for the unsorted goal, for the sorted goal). One
        // table: a scan and an index scan, and sorted, the index scan or
        // a Sort over either; a join delivers no order, so every sorted
        // join plan is a Sort over an unsorted one.
        for (tables, unsorted, sorted) in [(1, 2, 3), (2, 4, 4), (3, 24, 24), (4, 240, 240)] {
            for (goal, want) in [
                (ToySort::default(), unsorted),
                (ToySort { sorted: true }, sorted),
            ] {
                let (mut opt, root) = left_deep(&model, &rules, tables);
                let en = opt.enumerate_bounded(root, goal, EnumLimits::default());
                assert!(!en.truncated);
                assert_eq!(en.count, want as u64, "{tables} table(s), {goal:?}");
                assert_eq!(en.plans.len(), want, "{tables} table(s), {goal:?}");
            }
        }
    }

    /// Sort over the opposite order: a group's two goals reach each other.
    struct Flip;

    impl crate::Enforcer<Toy> for Flip {
        fn name(&self) -> &'static str {
            "flip"
        }
        fn enforce(
            &self,
            _: &Toy,
            _: &crate::Memo<Toy>,
            _: GroupId,
            required: &ToySort,
            out: &mut Vec<crate::EnforceCandidate<Toy>>,
        ) {
            let input_props = ToySort {
                sorted: !required.sorted,
            };
            out.extend([true, false].map(|sorted| crate::EnforceCandidate {
                op: ToyPOp::Sort,
                input_props,
                delivers: ToySort { sorted },
            }));
        }
    }

    /// A join over sorted inputs that keeps their order.
    struct OrderedJoin;

    impl crate::ImplRule<Toy> for OrderedJoin {
        fn name(&self) -> &'static str {
            "ordered-join"
        }
        fn consumes(&self) -> &'static [&'static str] {
            &["Join"]
        }
        fn implementations(
            &self,
            _: &Toy,
            _: &crate::Memo<Toy>,
            expr: &crate::Expr<Toy>,
            _: &ToySort,
            out: &mut Vec<crate::Candidate<Toy>>,
        ) {
            out.push(crate::Candidate {
                op: ToyPOp::HashJoin,
                inputs: expr.children.map(|g| (g, ToySort { sorted: true })),
                delivers: ToySort { sorted: true },
            });
        }
    }

    #[test]
    fn a_goal_whose_walk_met_a_cut_is_walked_again() {
        let model = Toy::default();
        let mut rules = toy_rules();
        rules.enforcers.insert(0, Box::new(Flip));
        rules.impls.push(Box::new(OrderedJoin));
        // A table's sorted goal is first walked inside its unsorted goal,
        // where every Sort over the unsorted goal is cut. Remembered, that
        // count would also serve the ordered join, which reaches the
        // sorted goal with the unsorted one closed. The counts are those
        // of a walk that memoized nothing.
        for (goal, want) in [(ToySort::default(), 68), (ToySort { sorted: true }, 76)] {
            let (mut opt, root) = left_deep(&model, &rules, 2);
            let en = opt.enumerate_bounded(root, goal, EnumLimits::default());
            assert_eq!(
                (en.count, en.plans.len()),
                (want, want as usize),
                "{goal:?}"
            );
        }
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
        let effort = opt.stats;
        let en = opt.enumerate_bounded(root, ToySort::default(), EnumLimits::default());
        assert_eq!(opt.stats, effort, "the oracle's walk is no search effort");
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
        let en = opt.enumerate_bounded(root, ToySort::default(), EnumLimits { max_plans: 3 });
        assert!(en.truncated, "cut walks must say so");
        assert_eq!(en.count, 24, "the refused space is still counted");
        assert!(en.plans.is_empty(), "and none of it is built");
    }

    #[test]
    fn enforcers_price_nothing_past_truncation_or_over_an_empty_walk() {
        use crate::search::tests::{Counted, Resort, Unordered};
        let sorted = ToySort { sorted: true };
        let model = Counted::default();
        let rules = RuleSet {
            transforms: vec![],
            impls: vec![Box::new(Unordered) as Box<dyn crate::ImplRule<Counted>>],
            enforcers: vec![Box::new(Resort), Box::new(Resort)],
        };
        let mut opt = Optimizer::new(&model, &rules, SearchConfig::default());
        let t = opt.memo.insert(&model, ToyOp::Table(0), []).0;
        let en = opt.enumerate_bounded(t, sorted, EnumLimits { max_plans: 1 });
        assert!(en.truncated && en.plans.is_empty());
        assert_eq!(en.count, 2, "a Sort over the scan, once per enforcer");
        // Over the bound nothing is built; counting priced the scan once,
        // since both Sorts reach the unsorted goal's one walk.
        assert_eq!(
            model.priced.take(),
            [ToyPOp::Scan(0), ToyPOp::Sort, ToyPOp::Sort]
        );

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
}
