//! The search engine: exhaustive transformation + top-down, goal-directed,
//! memoizing optimization.
//!
//! A *goal* is a `(group, required physical properties)` pair. Solving a
//! goal means finding the cheapest physical plan that computes the group's
//! logical expression *and* delivers the required properties. Winners are
//! memoized per goal; physical properties drive the search top-down exactly
//! as the paper describes for Query 3 ("the search process considers only
//! those subplans that can deliver the physical properties that are
//! required by the algorithm of the containing plan").

use crate::dispatch::Dispatch;
use crate::fx::FxBuild;
use crate::inputs::Inputs;
use crate::memo::{ExprId, GroupId, Memo, RewritePart, Rewrites};
use crate::model::{
    Candidate, CostValue, EnforceCandidate, ImplRule, OptModel, RuleSet, RuleSignature,
};
use crate::stats::SearchStats;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;
use std::time::Instant;

/// Engine configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchConfig {
    /// Branch-and-bound: abandon a candidate as soon as its partial cost
    /// exceeds the best complete plan found for the goal. Sound (never
    /// changes the winner); saves effort. Off by default to mirror the
    /// paper's exhaustive-search evaluation.
    pub prune: bool,
    /// Record a goal-level search trace (see [`Optimizer::trace`]) — the
    /// "search state" view of the paper's Figure 11.
    pub trace: bool,
    /// Absolute deadline for the search. Checked at sweep and goal
    /// boundaries; once hit, exploration stops, every unsolved goal bails
    /// out as infeasible, and **nothing is memoized past the expiry** —
    /// any plan extracted afterwards is built only from winners completed
    /// before the deadline, so it is always internally consistent.
    /// [`crate::SearchStats::deadline_hit`] records that the bound bit.
    pub deadline: Option<Instant>,
}

/// One recorded search event (when tracing is enabled).
#[derive(Clone, Debug)]
pub enum TraceEvent<P> {
    /// A goal `(group, required properties)` was opened at the given
    /// recursion depth.
    GoalOpened {
        /// The group being optimized.
        group: GroupId,
        /// Required physical properties.
        props: P,
        /// Depth in the goal stack.
        depth: usize,
    },
    /// A goal was solved (or proven infeasible).
    GoalSolved {
        /// The group.
        group: GroupId,
        /// Required properties.
        props: P,
        /// Depth in the goal stack.
        depth: usize,
        /// Name of the winning rule/enforcer, if feasible.
        winner: Option<&'static str>,
        /// Total cost of the winner (scalar), if feasible.
        cost: Option<f64>,
    },
}

/// One alternative for a goal, as the search's goal walk yields it: an
/// algorithm or enforcer over its input goals, priced.
#[derive(Debug)]
pub struct Alternative<M: OptModel> {
    /// The algorithm (or enforcer).
    pub op: M::POp,
    /// Sub-goals: input group + required properties, resolvable against
    /// the winners table.
    pub children: Inputs<(GroupId, M::PProps)>,
    /// Local cost of `op` alone.
    pub local_cost: M::Cost,
    /// Properties the plan delivers.
    pub delivers: M::PProps,
    /// Name of the rule/enforcer that produced this alternative.
    pub rule: &'static str,
}

impl<M: OptModel> Alternative<M> {
    /// The plan node of this alternative over the given input plans.
    pub(crate) fn node(&self, children: Vec<PlanNode<M>>) -> PlanNode<M> {
        PlanNode {
            op: self.op.clone(),
            children,
            local_cost: self.local_cost,
            delivers: self.delivers.clone(),
        }
    }
}

/// The winning alternative for one goal.
#[derive(Debug)]
pub struct Winner<M: OptModel> {
    /// The cheapest alternative.
    pub alt: Alternative<M>,
    /// Total cost including inputs.
    pub total: M::Cost,
}

/// What a goal's walk asks of its caller: the search solves input goals
/// for their cheapest cost and keeps the cheapest alternative, the
/// enumeration oracle counts their plans and keeps every alternative.
pub(crate) trait Visit<M: OptModel> {
    /// What the caller knows of a solved input goal.
    type Input;

    /// Solves an alternative's input goals in order; `None` drops the
    /// alternative. `local` is its price when that is known before its
    /// inputs (an implementation candidate's); an enforcer is priced only
    /// once its input goal is solved.
    fn inputs(
        &mut self,
        opt: &mut Optimizer<'_, M>,
        goals: &Inputs<(GroupId, M::PProps)>,
        local: Option<M::Cost>,
    ) -> Option<Inputs<Self::Input>>;

    /// An alternative whose input goals were all solved, priced `local`;
    /// `alt` builds it, for a caller that keeps it.
    fn accept(
        &mut self,
        inputs: Inputs<Self::Input>,
        local: M::Cost,
        alt: impl FnOnce() -> Alternative<M>,
    );
}

/// The search's side of a goal's walk: the cheapest alternative so far.
struct Cheapest<M: OptModel>(Option<Winner<M>>);

impl<M: OptModel> Visit<M> for Cheapest<M> {
    type Input = M::Cost;

    #[inline(always)]
    fn inputs(
        &mut self,
        opt: &mut Optimizer<'_, M>,
        goals: &Inputs<(GroupId, M::PProps)>,
        local: Option<M::Cost>,
    ) -> Option<Inputs<M::Cost>> {
        let mut total = local;
        let best = self.0.as_ref().filter(|_| opt.config.prune);
        let solved = goals.each_ref().try_map(|(g, p)| {
            if total.is_some_and(|t| best.is_some_and(|b| t.total() >= b.total.total())) {
                opt.stats.pruned += 1;
                return Err(());
            }
            let cost = opt.optimize_group(*g, p).ok_or(())?;
            total = total.map(|t| t.add(cost));
            Ok(cost)
        });
        solved.ok()
    }

    fn accept(
        &mut self,
        inputs: Inputs<M::Cost>,
        local: M::Cost,
        alt: impl FnOnce() -> Alternative<M>,
    ) {
        let total = inputs.iter().fold(local, |t, &c| t.add(c));
        if self
            .0
            .as_ref()
            .is_none_or(|b| total.total() < b.total.total())
        {
            self.0 = Some(Winner { alt: alt(), total });
        }
    }
}

/// What the search knows about one goal.
enum Goal<M: OptModel> {
    /// Being solved further up the recursion: a plan that needs this goal
    /// again would contain itself.
    Open,
    /// Solved for good: the winner, or `None` when no plan is feasible.
    Solved(Option<Winner<M>>),
}

/// A goal: a group and the position of its required properties in
/// [`Optimizer::goal_props`].
pub(crate) type GoalKey = (GroupId, u32);

/// The buffers a goal walk's rules push candidates into.
type Candidates<M> = (Vec<Candidate<M>>, Vec<EnforceCandidate<M>>);

/// An extracted physical plan node.
#[derive(Debug)]
pub struct PlanNode<M: OptModel> {
    /// The algorithm.
    pub op: M::POp,
    /// Input plans.
    pub children: Vec<PlanNode<M>>,
    /// Local cost of this operator.
    pub local_cost: M::Cost,
    /// Properties delivered here.
    pub delivers: M::PProps,
}

impl<M: OptModel> PlanNode<M> {
    /// Total plan cost.
    pub fn total_cost(&self) -> M::Cost {
        self.children
            .iter()
            .fold(self.local_cost, |acc, c| acc.add(c.total_cost()))
    }

    /// Number of operators in the plan.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(PlanNode::size).sum::<usize>()
    }
}

/// The optimizer: memo + rules + winners table.
pub struct Optimizer<'a, M: OptModel> {
    model: &'a M,
    rules: &'a RuleSet<M>,
    /// The memo (public so the model's rules and the caller can seed and
    /// inspect it).
    pub memo: Memo<M>,
    config: SearchConfig,
    /// The transformation rules' signatures, by rule-set position.
    signatures: Vec<RuleSignature>,
    /// The transformation rules by the root tag they consume.
    transforms: Dispatch,
    /// The implementation rules by the root tag they consume.
    impls: Dispatch,
    /// Dense `expression × transformation rule` table: the children
    /// version (see [`Self::children_version`]) the rule last fired at on
    /// the expression, `None` if it never did.
    fired: Vec<Option<u64>>,
    /// Every distinct required-property vector this search has met — a
    /// query generates a handful, so interning is a linear probe. Goal
    /// keys name one by position, which makes them exact and `Copy`.
    goal_props: Vec<M::PProps>,
    goals: HashMap<GoalKey, Goal<M>, FxBuild>,
    depth: usize,
    /// The buffer every transformation rule writes into, cleared before
    /// each firing.
    rewrites: Rewrites<M::LOp>,
    /// Candidate buffers of the goal walks not under way. A walk recurses
    /// into input goals while it walks its own candidates, so it takes a
    /// buffer here when it starts and puts it back, drained, when it ends:
    /// a search allocates one per level of its deepest goal stack.
    spare: Vec<Candidates<M>>,
    /// The recorded search trace (empty unless `SearchConfig::trace`).
    pub trace: Vec<TraceEvent<M::PProps>>,
    /// Search statistics.
    pub stats: SearchStats,
}

impl<'a, M: OptModel> Optimizer<'a, M> {
    /// Creates an optimizer over a model and rule set.
    pub fn new(model: &'a M, rules: &'a RuleSet<M>, config: SearchConfig) -> Self {
        let signatures: Vec<RuleSignature> =
            rules.transforms.iter().map(|r| r.signature()).collect();
        Optimizer {
            model,
            rules,
            memo: Memo::new(),
            config,
            transforms: Dispatch::new(signatures.iter().map(|s| s.consumes)),
            impls: Dispatch::new(rules.impls.iter().map(|r| r.consumes())),
            signatures,
            fired: Vec::new(),
            goal_props: Vec::new(),
            goals: HashMap::default(),
            depth: 0,
            rewrites: Rewrites::default(),
            spare: Vec::new(),
            trace: Vec::new(),
            stats: SearchStats::default(),
        }
    }

    /// The model. Returned at the optimizer's own lifetime so holding it
    /// does not freeze `self`.
    pub fn model(&self) -> &'a M {
        self.model
    }

    /// The rule set, at the optimizer's own lifetime.
    pub fn rules(&self) -> &'a RuleSet<M> {
        self.rules
    }

    fn props_id(&self, props: &M::PProps) -> Option<usize> {
        self.goal_props.iter().position(|p| p == props)
    }

    /// The key of goal `(group, props)`, interning `props` on first sight.
    /// `group` must be a representative.
    pub(crate) fn goal_key(&mut self, group: GroupId, props: &M::PProps) -> GoalKey {
        let id = self.props_id(props).unwrap_or_else(|| {
            self.goal_props.push(props.clone());
            self.goal_props.len() - 1
        });
        (group, id as u32)
    }

    /// The model's price of `op` over its input groups' logical properties.
    pub(crate) fn price(&self, op: &M::POp, inputs: Inputs) -> M::Cost {
        self.model.cost(op, &inputs.map(|g| self.memo.props(g)))
    }

    /// The implementation rules offered expression `e`: those consuming its
    /// root's tag and the unsigned ones, in rule-set order, as positions
    /// for [`Self::impl_rule`].
    fn impl_rules(&self, e: ExprId) -> Range<usize> {
        self.impls.run(self.model.tag(&self.memo.expr(e).op))
    }

    /// The implementation rule at position `k` of an [`Self::impl_rules`]
    /// run.
    fn impl_rule(&self, k: usize) -> &'a dyn ImplRule<M> {
        &*self.rules.impls[self.impls.rule(k)]
    }

    /// Whether every root the transformation rule at `ri` just emitted
    /// carries a tag its signature produces. A bare group is no new root
    /// and passes, as does everything an unsigned rule emits.
    fn emitted_as_declared(&self, ri: usize) -> bool {
        let produces = self.signatures[ri].produces;
        !self.signatures[ri].is_signed()
            || self
                .rewrites
                .emitted()
                .iter()
                .all(|&root| match self.rewrites.part(root) {
                    RewritePart::Op(op, _) => produces.contains(&self.model.tag(op)),
                    RewritePart::Group(_) => true,
                })
    }

    /// The memoized winner of a solved goal, if it has one.
    pub fn winner(&self, group: GroupId, props: &M::PProps) -> Option<&Winner<M>> {
        let key = (self.memo.find(group), self.props_id(props)? as u32);
        match self.goals.get(&key)? {
            Goal::Solved(w) => w.as_ref(),
            Goal::Open => None,
        }
    }

    /// Whether the search deadline has expired. Latches into
    /// `stats.deadline_hit` so subsequent checks skip the clock read.
    fn deadline_expired(&mut self) -> bool {
        if self.stats.deadline_hit {
            return true;
        }
        match self.config.deadline {
            Some(d) if Instant::now() >= d => {
                self.stats.deadline_hit = true;
                true
            }
            _ => false,
        }
    }

    fn children_version(&self, e: ExprId) -> u64 {
        let mut v: u64 = 0xcbf29ce484222325;
        for &c in &self.memo.expr(e).children {
            v = v
                .wrapping_mul(0x100000001b3)
                .wrapping_add(self.memo.group_version(c));
        }
        v
    }

    /// Applies transformation rules to a global fixpoint. An expression is
    /// offered the rules that consume its root's tag. A rule that reads its
    /// inputs is re-fired whenever the expression's child groups have grown
    /// since its last firing, so multi-level patterns are fully explored;
    /// any other rule fires once per expression.
    pub fn explore_all(&mut self) {
        let t0 = Instant::now();
        let rules = self.rules.transforms.len();
        'sweep: loop {
            let mut changed = false;
            // One sweep visits the expressions that exist when it starts,
            // in id order; those it creates wait for the next sweep.
            let slots = self.memo.expr_slots();
            self.fired.resize(slots * rules, None);
            for e in (0..slots).map(ExprId::from_index) {
                if self.memo.is_dead(e) {
                    continue;
                }
                if self.deadline_expired() {
                    break 'sweep;
                }
                let run = self.transforms.run(self.model.tag(&self.memo.expr(e).op));
                if run.is_empty() {
                    continue;
                }
                // Only a rewrite that changed the memo can move the version.
                let mut ver = self.children_version(e);
                for k in run {
                    let ri = self.transforms.rule(k);
                    let reads_inputs = self.signatures[ri].reads_inputs;
                    let last = &mut self.fired[e.index() * rules + ri];
                    if last.is_some() && (!reads_inputs || *last == Some(ver)) {
                        continue;
                    }
                    *last = Some(ver);
                    let expr = self.memo.expr(e);
                    let target = expr.group;
                    self.rewrites.clear();
                    let rule = &self.rules.transforms[ri];
                    rule.apply(self.model, &self.memo, expr, &mut self.rewrites);
                    self.stats.transform_firings += 1;
                    debug_assert!(
                        self.emitted_as_declared(ri),
                        "rule {} emitted a root its signature does not produce",
                        rule.name()
                    );
                    let mut grew = false;
                    for &root in self.rewrites.emitted() {
                        self.stats.exprs_generated += 1;
                        grew |= self
                            .memo
                            .insert_emitted(self.model, target, &self.rewrites, root);
                    }
                    if grew {
                        changed = true;
                        ver = self.children_version(e);
                    }
                }
            }
            if !changed {
                break;
            }
        }
        self.stats.groups = self.memo.group_count();
        self.stats.exprs = self.memo.expr_count();
        self.stats.explore_elapsed = t0.elapsed();
    }

    /// Solves a goal: the cost of the cheapest plan computing `group` that
    /// delivers `props`. `None` means no feasible plan exists. The winner
    /// itself stays in the goal table ([`Self::winner`], [`Self::extract`]).
    pub fn optimize_group(&mut self, group: GroupId, props: &M::PProps) -> Option<M::Cost> {
        let group = self.memo.find(group);
        let key = self.goal_key(group, props);
        if let Some(Goal::Solved(w)) = self.goals.get(&key) {
            return w.as_ref().map(|w| w.total);
        }
        if self.deadline_expired() {
            // Bail without memoizing: this goal is unsolved, not
            // infeasible, and must not be remembered as such.
            return None;
        }
        match self.goals.entry(key) {
            Entry::Occupied(_) => return None, // open: a plan requiring itself is infinite
            Entry::Vacant(slot) => slot.insert(Goal::Open),
        };
        self.stats.goals += 1;
        if self.config.trace {
            self.trace.push(TraceEvent::GoalOpened {
                group,
                props: props.clone(),
                depth: self.depth,
            });
        }
        self.depth += 1;

        let mut cheapest = Cheapest(None);
        self.walk_goal(group, props, &mut cheapest);
        let best = cheapest.0;
        self.depth -= 1;
        if self.config.trace {
            self.trace.push(TraceEvent::GoalSolved {
                group,
                props: props.clone(),
                depth: self.depth,
                winner: best.as_ref().map(|w| w.alt.rule),
                cost: best.as_ref().map(|w| w.total.total()),
            });
        }
        let cost = best.as_ref().map(|w| w.total);
        // A goal solved while the deadline expired underneath it may have
        // skipped alternatives; recording it as the goal's final answer
        // would wrongly pin a partial (or absent) winner.
        if self.stats.deadline_hit {
            self.goals.remove(&key);
        } else {
            self.goals.insert(key, Goal::Solved(best));
        }
        cost
    }

    /// Walks goal `(group, props)`'s alternatives in order: every
    /// implementation candidate `satisfies` accepts, priced, then every
    /// enforcer that makes progress, priced once its input goal is solved.
    /// `visit` solves each alternative's input goals and takes the
    /// alternatives whose inputs it solved, each one plan costed. The
    /// search and the enumeration oracle walk a goal only through here, so
    /// they see the same alternatives.
    // Inlined, with `Cheapest::inputs`, so the search's recursion costs no
    // extra frames per goal (EXPERIMENTS.md "One goal walk").
    #[inline(always)]
    pub(crate) fn walk_goal(
        &mut self,
        group: GroupId,
        props: &M::PProps,
        visit: &mut impl Visit<M>,
    ) {
        // Allocated only when no walk has returned one yet.
        let (mut implemented, mut enforced) = self.spare.pop().unwrap_or_default();
        // Goal solving never changes the memo, so the member list is
        // walked by position, and the rule set is copied out of `self`.
        let rules: &'a RuleSet<M> = self.rules;
        for member in 0..self.memo.group_exprs(group).len() {
            let e = self.memo.group_exprs(group)[member];
            for k in self.impl_rules(e) {
                let rule = self.impl_rule(k);
                let expr = self.memo.expr(e);
                rule.implementations(self.model, &self.memo, expr, props, &mut implemented);
                for cand in implemented.drain(..) {
                    self.stats.candidates += 1;
                    if !self.model.satisfies(props, &cand.delivers) {
                        continue;
                    }
                    let local = self.price(&cand.op, cand.inputs.each_ref().map(|(g, _)| *g));
                    if let Some(inputs) = visit.inputs(self, &cand.inputs, Some(local)) {
                        self.stats.plans_costed += 1;
                        visit.accept(inputs, local, || Alternative {
                            op: cand.op,
                            children: cand.inputs.map(|(g, p)| (self.memo.find(g), p)),
                            local_cost: local,
                            delivers: cand.delivers,
                            rule: rule.name(),
                        });
                    }
                }
            }
        }

        // Enforcers: satisfy the goal by fixing up a weaker one.
        for enf in &rules.enforcers {
            enf.enforce(self.model, &self.memo, group, props, &mut enforced);
            for ec in enforced.drain(..) {
                self.stats.enforcements += 1;
                // No progress would recurse forever; nor is a plan that
                // misses the goal's properties one.
                if ec.input_props == *props || !self.model.satisfies(props, &ec.delivers) {
                    continue;
                }
                let children = Inputs::one((group, ec.input_props));
                if let Some(inputs) = visit.inputs(self, &children, None) {
                    let local = self.price(&ec.op, Inputs::one(group));
                    self.stats.plans_costed += 1;
                    visit.accept(inputs, local, || Alternative {
                        op: ec.op,
                        children,
                        local_cost: local,
                        delivers: ec.delivers,
                        rule: enf.name(),
                    });
                }
            }
        }
        self.spare.push((implemented, enforced)); // drained: empty for the next walk
    }

    /// Extracts the winning plan tree for a solved goal.
    pub fn extract(&self, group: GroupId, props: &M::PProps) -> Option<PlanNode<M>> {
        let w = &self.winner(group, props)?.alt;
        let children = w.children.iter().map(|(cg, cp)| self.extract(*cg, cp));
        Some(w.node(children.collect::<Option<_>>()?))
    }

    /// Full pipeline: explore, solve the root goal, extract the plan.
    pub fn run(&mut self, root: GroupId, props: M::PProps) -> Option<PlanNode<M>> {
        let t0 = Instant::now();
        self.explore_all();
        self.optimize_group(root, &props);
        let plan = self.extract(root, &props);
        self.stats.elapsed = t0.elapsed();
        plan
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::toy::{toy_rules, Toy, ToyOp, ToyPOp, ToySort};

    fn setup<'a>(
        model: &'a Toy,
        rules: &'a RuleSet<Toy>,
        config: SearchConfig,
    ) -> (Optimizer<'a, Toy>, GroupId) {
        let mut opt = Optimizer::new(model, rules, config);
        let a = opt.memo.insert(model, ToyOp::Table(0), vec![]).0;
        let b = opt.memo.insert(model, ToyOp::Table(1), vec![]).0;
        let c = opt.memo.insert(model, ToyOp::Table(2), vec![]).0;
        let (ab, _, _) = opt.memo.insert(model, ToyOp::Join, vec![a, b]);
        let (root, _, _) = opt.memo.insert(model, ToyOp::Join, vec![ab, c]);
        (opt, root)
    }

    #[test]
    fn exploration_reaches_fixpoint_with_all_join_orders() {
        let model = Toy::default();
        let rules = toy_rules();
        let (mut opt, root) = setup(&model, &rules, SearchConfig::default());
        opt.explore_all();
        // Three tables: the root group must contain joins pairing each
        // table with the join of the other two, in both orders: 6 exprs.
        assert_eq!(opt.memo.group_exprs(root).len(), 6);
        // Re-exploration is a no-op.
        let exprs = opt.memo.expr_count();
        opt.explore_all();
        assert_eq!(opt.memo.expr_count(), exprs);
    }

    /// A transformation rule given as a closure.
    struct Scripted<F>(F);

    impl<F> crate::TransformRule<Toy> for Scripted<F>
    where
        F: Fn(&Memo<Toy>, &crate::Expr<Toy>, &mut Rewrites<ToyOp>),
    {
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn apply(
            &self,
            _model: &Toy,
            memo: &Memo<Toy>,
            expr: &crate::Expr<Toy>,
            out: &mut Rewrites<ToyOp>,
        ) {
            (self.0)(memo, expr, out)
        }
    }

    #[test]
    fn parent_refires_when_a_child_retires_one_member_and_gains_another_in_one_sweep() {
        // Whether `expr` is a join whose inputs are (groups anchored at)
        // the given tables; `None` matches anything.
        fn joins(
            memo: &Memo<Toy>,
            expr: &crate::Expr<Toy>,
            l: Option<u32>,
            r: Option<u32>,
        ) -> bool {
            let is = |g, t: Option<u32>| {
                t.is_none_or(|t| memo.expr(memo.group_exprs(g)[0]).op == ToyOp::Table(t))
            };
            expr.op == ToyOp::Join && is(expr.children[0], l) && is(expr.children[1], r)
        }
        let model = Toy::default();
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let probe = std::rc::Rc::clone(&seen);
        let rules = RuleSet {
            transforms: vec![
                // Join(B, A) → Join(A, B): proves the two join groups equal.
                Box::new(Scripted(
                    |memo: &Memo<Toy>, e: &crate::Expr<Toy>, out: &mut Rewrites<ToyOp>| {
                        if joins(memo, e, Some(1), Some(0)) {
                            let [b, a] = [1, 0].map(|i| out.group(e.children[i]));
                            let root = out.op(ToyOp::Join, [b, a]);
                            out.emit(root);
                        }
                    },
                )) as Box<dyn crate::TransformRule<Toy>>,
                // Join(D, D) → Join(D, A): one new member for its group.
                Box::new(Scripted(
                    |memo: &Memo<Toy>, e: &crate::Expr<Toy>, out: &mut Rewrites<ToyOp>| {
                        if joins(memo, e, Some(3), Some(3)) {
                            let d = out.group(e.children[0]);
                            let a = out.op(ToyOp::Table(0), []);
                            let root = out.op(ToyOp::Join, [d, a]);
                            out.emit(root);
                        }
                    },
                )),
                // The two-level rule under test: on Join(G, D) it looks
                // at G's members (and here only records them).
                Box::new(Scripted(
                    move |memo: &Memo<Toy>, e: &crate::Expr<Toy>, _: &mut Rewrites<ToyOp>| {
                        if joins(memo, e, None, Some(3)) && !joins(memo, e, Some(3), None) {
                            probe
                                .borrow_mut()
                                .push(memo.group_exprs(e.children[0]).to_vec());
                        }
                    },
                )),
            ],
            impls: vec![],
            enforcers: vec![],
        };
        let mut opt = Optimizer::new(&model, &rules, SearchConfig::default());
        let memo = &mut opt.memo;
        let [a, b, c, d] = [0, 1, 2, 3].map(|t| memo.insert(&model, ToyOp::Table(t), vec![]).0);
        let ab = memo.insert(&model, ToyOp::Join, vec![a, b]).0;
        let g = memo.insert(&model, ToyOp::Join, vec![ab, c]).0;
        memo.insert(&model, ToyOp::Join, vec![g, d]); // the parent, visited first
        let ba = memo.insert(&model, ToyOp::Join, vec![b, a]).0;
        memo.insert_into(&model, g, ToyOp::Join, vec![ba, c]);
        memo.insert_into(&model, g, ToyOp::Join, vec![d, d]);
        assert_eq!(memo.group_exprs(g).len(), 3);
        // Sweep 1 visits the parent (three members below it), then
        // Join(B, A): ab ≡ ba turns Join(ba, C) into a duplicate of
        // Join(ab, C), which is retired — two members; then Join(D, D),
        // which adds Join(D, A) — three members again, one of them new.
        opt.explore_all();
        assert_eq!(opt.memo.group_exprs(g).len(), 3);
        let seen = seen.borrow();
        assert_eq!(seen.len(), 2, "the parent is fired again in sweep 2");
        assert_eq!(seen[1], opt.memo.group_exprs(g), "and sees the new member");
        assert_ne!(seen[0], seen[1]);
    }

    /// A root a transformation rule is fired on: operator and inputs.
    type Root = (ToyOp, Vec<GroupId>);

    /// Every root a transformation rule is fired on.
    type Fired = std::rc::Rc<std::cell::RefCell<Vec<Root>>>;

    /// A transformation rule under a given signature that emits nothing
    /// and records the roots it is fired on.
    struct Recorder(RuleSignature, Fired);

    impl crate::TransformRule<Toy> for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }
        fn apply(&self, _: &Toy, _: &Memo<Toy>, e: &crate::Expr<Toy>, _: &mut Rewrites<ToyOp>) {
            self.1
                .borrow_mut()
                .push((e.op.clone(), e.children.to_vec()));
        }
        fn signature(&self) -> RuleSignature {
            self.0
        }
    }

    /// A join-only signature that reads its inputs or not.
    fn joins(reads_inputs: bool) -> RuleSignature {
        RuleSignature {
            consumes: &["Join"],
            produces: &["Join"],
            generative: false,
            reads_inputs,
        }
    }

    /// The toy rules plus one recorder per signature, explored over three
    /// tables: what each recorder was fired on, and the live expressions.
    fn record(signatures: &[RuleSignature]) -> (Vec<Vec<Root>>, usize) {
        let model = Toy::default();
        let mut rules = toy_rules();
        let logs: Vec<Fired> = signatures.iter().map(|_| Fired::default()).collect();
        for (&sig, log) in signatures.iter().zip(&logs) {
            rules
                .transforms
                .push(Box::new(Recorder(sig, Fired::clone(log))));
        }
        let (mut opt, _) = setup(&model, &rules, SearchConfig::default());
        opt.explore_all();
        let logs = logs.iter().map(|l| l.take()).collect();
        (logs, opt.memo.live_exprs().count())
    }

    #[test]
    fn a_rule_fires_only_on_the_roots_it_consumes() {
        let tables = RuleSignature {
            consumes: &["Table"],
            ..joins(true)
        };
        let (logs, _) = record(&[joins(true), tables]);
        let only = |log: &Vec<Root>, join: bool| {
            !log.is_empty() && log.iter().all(|(op, _)| (*op == ToyOp::Join) == join)
        };
        assert!(only(&logs[0], true), "{:?}", logs[0]);
        assert!(only(&logs[1], false), "{:?}", logs[1]);

        // Implementation rules likewise, beside an unsigned one that
        // implements everything.
        struct Offered(
            &'static [&'static str],
            std::rc::Rc<std::cell::RefCell<Vec<ToyOp>>>,
        );
        impl crate::ImplRule<Counted> for Offered {
            fn name(&self) -> &'static str {
                "offered"
            }
            fn consumes(&self) -> &'static [&'static str] {
                self.0
            }
            fn implementations(
                &self,
                _: &Counted,
                _: &Memo<Counted>,
                expr: &crate::Expr<Counted>,
                _: &ToySort,
                _: &mut Vec<crate::Candidate<Counted>>,
            ) {
                self.1.borrow_mut().push(expr.op.clone());
            }
        }
        let model = Counted::default();
        let [joined, scanned] = [(); 2].map(|_| std::rc::Rc::new(std::cell::RefCell::new(vec![])));
        let rules = RuleSet {
            transforms: vec![],
            impls: vec![
                Box::new(Unordered) as Box<dyn crate::ImplRule<Counted>>,
                Box::new(Offered(&["Join"], std::rc::Rc::clone(&joined))),
                Box::new(Offered(&["Table"], std::rc::Rc::clone(&scanned))),
            ],
            enforcers: vec![],
        };
        let mut opt = Optimizer::new(&model, &rules, SearchConfig::default());
        let [a, b] = [0, 1].map(|t| opt.memo.insert(&model, ToyOp::Table(t), vec![]).0);
        let root = opt.memo.insert(&model, ToyOp::Join, vec![a, b]).0;
        opt.run(root, ToySort::default()).expect("plan");
        assert_eq!(*joined.borrow(), [ToyOp::Join]);
        assert_eq!(*scanned.borrow(), [ToyOp::Table(0), ToyOp::Table(1)]);
        assert_eq!(model.priced.take().len(), 3, "the unsigned rule: all three");
    }

    #[test]
    fn an_unsigned_rule_fires_on_every_root() {
        let (logs, live) = record(&[RuleSignature::UNSIGNED]);
        let roots: std::collections::HashSet<_> = logs[0].iter().cloned().collect();
        assert_eq!(roots.len(), live, "every live expression, tables included");
        assert!(roots.iter().any(|(op, _)| matches!(op, ToyOp::Table(_))));
    }

    #[test]
    fn only_a_rule_that_reads_its_inputs_refires_after_they_grow() {
        let (logs, _) = record(&[joins(false), joins(true)]);
        let distinct = |log: &Vec<_>| log.iter().collect::<std::collections::HashSet<_>>().len();
        assert_eq!(distinct(&logs[0]), logs[0].len(), "once per expression");
        assert_eq!(distinct(&logs[1]), distinct(&logs[0]), "on the same roots");

        // Grow a child group of an explored join: the reader sees it again.
        let model = Toy::default();
        let [once, reader] = [Fired::default(), Fired::default()];
        let rules = RuleSet {
            transforms: vec![
                Box::new(Recorder(joins(false), Fired::clone(&once)))
                    as Box<dyn crate::TransformRule<Toy>>,
                Box::new(Recorder(joins(true), Fired::clone(&reader))),
            ],
            impls: vec![],
            enforcers: vec![],
        };
        let mut opt = Optimizer::new(&model, &rules, SearchConfig::default());
        let [a, b] = [0, 1].map(|t| opt.memo.insert(&model, ToyOp::Table(t), vec![]).0);
        opt.memo.insert(&model, ToyOp::Join, vec![a, b]);
        opt.explore_all();
        opt.memo.insert_into(&model, a, ToyOp::Table(2), vec![]);
        opt.explore_all();
        assert_eq!(once.borrow().len(), 1);
        assert_eq!(reader.borrow().len(), 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "does not produce")]
    fn a_debug_build_refuses_a_root_outside_produces() {
        struct Liar;
        impl crate::TransformRule<Toy> for Liar {
            fn name(&self) -> &'static str {
                "liar"
            }
            fn apply(
                &self,
                _: &Toy,
                _: &Memo<Toy>,
                e: &crate::Expr<Toy>,
                out: &mut Rewrites<ToyOp>,
            ) {
                let [a, b] = [0, 1].map(|i| out.group(e.children[i]));
                let root = out.op(ToyOp::Join, [b, a]);
                out.emit(root);
            }
            fn signature(&self) -> RuleSignature {
                RuleSignature {
                    produces: &["Table"],
                    ..joins(false)
                }
            }
        }
        let model = Toy::default();
        let rules = RuleSet {
            transforms: vec![Box::new(Liar) as Box<dyn crate::TransformRule<Toy>>],
            impls: vec![],
            enforcers: vec![],
        };
        setup(&model, &rules, SearchConfig::default())
            .0
            .explore_all();
    }

    #[test]
    fn finds_cheapest_join_order() {
        let model = Toy::default(); // cards 100, 1000, 10
        let rules = toy_rules();
        let (mut opt, root) = setup(&model, &rules, SearchConfig::default());
        let plan = opt.run(root, ToySort::default()).expect("plan");
        // Best order joins the two small tables (100 × 10) first.
        // cost(join(a,c)) = 2*10 + 100 = 120, out card = 100*10/10 = 100
        // cost(join(ac,b)) = 2*100 + 1000 = 1200
        // scans: 100 + 10 + 1000; total = 120 + 1200 + 1110 = 2430.
        assert!(
            (plan.total_cost() - 2430.0).abs() < 1e-9,
            "{}",
            plan.total_cost()
        );
    }

    #[test]
    fn goal_directed_search_uses_enforcer_only_when_needed() {
        let model = Toy::default();
        let rules = toy_rules();
        let (mut opt, root) = setup(&model, &rules, SearchConfig::default());
        let unsorted = opt.run(root, ToySort::default()).expect("plan");
        assert!(
            !matches!(unsorted.op, ToyPOp::Sort),
            "no enforcer without a sorted requirement"
        );
        let sorted = ToySort { sorted: true };
        opt.optimize_group(root, &sorted).expect("sorted plan");
        let top = opt.winner(root, &sorted).expect("memoized winner");
        assert!(matches!(top.alt.op, ToyPOp::Sort), "sort enforcer on top");
        let plan = opt.extract(root, &ToySort { sorted: true }).unwrap();
        // Sort cost = out card × 3 = (100·1000·10/100) × 3 = 30000 on top.
        assert!(plan.total_cost() > unsorted.total_cost());
    }

    #[test]
    fn sorted_scan_wins_for_single_indexed_table() {
        let model = Toy::default();
        let rules = toy_rules();
        let mut opt = Optimizer::new(&model, &rules, SearchConfig::default());
        let a = opt.memo.insert(&model, ToyOp::Table(0), vec![]).0;
        let plan = opt.run(a, ToySort { sorted: true }).expect("plan");
        // Index scan at 120 beats scan 100 + sort 300.
        assert!(matches!(plan.op, ToyPOp::SortedScan(0)));
        assert!((plan.total_cost() - 120.0).abs() < 1e-9);

        // Table 1 has no index: only scan + sort works.
        let b = opt.memo.insert(&model, ToyOp::Table(1), vec![]).0;
        opt.optimize_group(b, &ToySort { sorted: true });
        let plan_b = opt.extract(b, &ToySort { sorted: true }).unwrap();
        assert!(matches!(plan_b.op, ToyPOp::Sort));
    }

    #[test]
    fn pruning_preserves_the_winner() {
        let model = Toy::default();
        let rules = toy_rules();
        let (mut opt1, r1) = setup(&model, &rules, SearchConfig::default());
        let exhaustive = opt1.run(r1, ToySort::default()).unwrap().total_cost();
        let (mut opt2, r2) = setup(
            &model,
            &rules,
            SearchConfig {
                prune: true,
                ..Default::default()
            },
        );
        let pruned = opt2.run(r2, ToySort::default()).unwrap().total_cost();
        assert_eq!(exhaustive, pruned);
        assert!(opt2.stats.pruned > 0, "pruning actually triggered");
    }

    #[test]
    fn winners_are_memoized_across_goals() {
        let model = Toy::default();
        let rules = toy_rules();
        let (mut opt, root) = setup(&model, &rules, SearchConfig::default());
        opt.run(root, ToySort::default());
        let goals_first = opt.stats.goals;
        // Solving the same goal again must not add work.
        opt.optimize_group(root, &ToySort::default());
        assert_eq!(opt.stats.goals, goals_first);
    }

    #[test]
    fn expired_deadline_stops_the_search_without_memoizing() {
        let model = Toy::default();
        let rules = toy_rules();
        let (mut opt, root) = setup(
            &model,
            &rules,
            SearchConfig {
                deadline: Some(Instant::now()),
                ..Default::default()
            },
        );
        assert!(opt.run(root, ToySort::default()).is_none());
        assert!(opt.stats.deadline_hit);
        assert_eq!(
            opt.stats.goals, 0,
            "no goal opened past an expired deadline"
        );
        assert!(opt.goals.is_empty(), "nothing memoized past the deadline");
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        let model = Toy::default();
        let rules = toy_rules();
        let (mut opt1, r1) = setup(&model, &rules, SearchConfig::default());
        let unbounded = opt1.run(r1, ToySort::default()).unwrap().total_cost();
        let (mut opt2, r2) = setup(
            &model,
            &rules,
            SearchConfig {
                deadline: Some(Instant::now() + std::time::Duration::from_secs(600)),
                ..Default::default()
            },
        );
        let bounded = opt2.run(r2, ToySort::default()).unwrap().total_cost();
        assert_eq!(unbounded, bounded);
        assert!(!opt2.stats.deadline_hit);
    }

    /// The toy model, recording every algorithm the engine prices.
    #[derive(Default)]
    pub(crate) struct Counted {
        toy: Toy,
        pub(crate) priced: std::cell::RefCell<Vec<ToyPOp>>,
    }

    impl OptModel for Counted {
        type LOp = ToyOp;
        type POp = ToyPOp;
        type LProps = crate::toy::ToyProps;
        type PProps = ToySort;
        type Cost = f64;
        fn derive_props(&self, op: &ToyOp, inputs: &[&Self::LProps]) -> Self::LProps {
            self.toy.derive_props(op, inputs)
        }
        fn cost(&self, op: &ToyPOp, inputs: &[&Self::LProps]) -> f64 {
            self.priced.borrow_mut().push(op.clone());
            self.toy.cost(op, inputs)
        }
        fn satisfies(&self, required: &ToySort, delivered: &ToySort) -> bool {
            self.toy.satisfies(required, delivered)
        }
        fn tag(&self, op: &ToyOp) -> &'static str {
            self.toy.tag(op)
        }
    }

    /// Scan and hash join whatever the goal: neither delivers an order.
    pub(crate) struct Unordered;

    impl crate::ImplRule<Counted> for Unordered {
        fn name(&self) -> &'static str {
            "unordered"
        }
        fn implementations(
            &self,
            _model: &Counted,
            _memo: &Memo<Counted>,
            expr: &crate::Expr<Counted>,
            _required: &ToySort,
            out: &mut Vec<crate::Candidate<Counted>>,
        ) {
            let op = match expr.op {
                ToyOp::Table(t) => ToyPOp::Scan(t),
                ToyOp::Join => ToyPOp::HashJoin,
            };
            out.push(crate::Candidate {
                op,
                inputs: expr.children.map(|g| (g, ToySort::default())),
                delivers: ToySort::default(),
            });
        }
    }

    /// Sort over the goal itself (no progress) and over the unsorted goal.
    pub(crate) struct Resort;

    impl crate::Enforcer<Counted> for Resort {
        fn name(&self) -> &'static str {
            "resort"
        }
        fn enforce(
            &self,
            _model: &Counted,
            _memo: &Memo<Counted>,
            _group: GroupId,
            required: &ToySort,
            out: &mut Vec<crate::EnforceCandidate<Counted>>,
        ) {
            out.extend([*required, ToySort::default()].map(|input_props| {
                crate::EnforceCandidate {
                    op: ToyPOp::Sort,
                    input_props,
                    delivers: ToySort { sorted: true },
                }
            }));
        }
    }

    /// Walks an extracted plan beside the winners it came from: each
    /// node's local cost is the model's price of its algorithm over its
    /// input groups' logical properties.
    fn assert_priced_by_model<M: OptModel>(
        opt: &Optimizer<'_, M>,
        (group, props): (GroupId, &M::PProps),
        node: &PlanNode<M>,
    ) {
        let w = opt.winner(group, props).expect("solved goal");
        let inputs: Vec<&M::LProps> = w
            .alt
            .children
            .iter()
            .map(|(g, _)| opt.memo.props(*g))
            .collect();
        let priced = opt.model().cost(&node.op, &inputs).total();
        assert_eq!(node.local_cost.total().to_bits(), priced.to_bits());
        assert_eq!(node.children.len(), w.alt.children.len());
        for ((g, p), child) in w.alt.children.iter().zip(&node.children) {
            assert_priced_by_model(opt, (*g, p), child);
        }
    }

    #[test]
    fn the_engine_prices_only_what_it_may_choose() {
        let model = Counted::default();
        let rules = RuleSet {
            transforms: vec![],
            impls: vec![Box::new(Unordered) as Box<dyn crate::ImplRule<Counted>>],
            enforcers: vec![Box::new(Resort) as Box<dyn crate::Enforcer<Counted>>],
        };
        let mut opt = Optimizer::new(&model, &rules, SearchConfig::default());
        let [a, b] = [0, 1].map(|t| opt.memo.insert(&model, ToyOp::Table(t), vec![]).0);
        let root = opt.memo.insert(&model, ToyOp::Join, vec![a, b]).0;
        let sorted = ToySort { sorted: true };
        let plan = opt.run(root, sorted).expect("plan");
        // The sorted goal rejects the hash join unpriced; the Sort over the
        // sorted goal itself, and every Sort over an unsorted goal, makes
        // no progress and is never priced either.
        assert_eq!(opt.stats.candidates, 4, "one join offered twice, two scans");
        assert_eq!(opt.stats.enforcements, 8, "two Sorts offered per goal");
        let priced = model.priced.borrow().clone();
        use ToyPOp::{HashJoin, Scan, Sort};
        assert_eq!(priced, [HashJoin, Scan(0), Scan(1), Sort]);
        assert!(matches!(plan.op, Sort));
        assert_priced_by_model(&opt, (root, &sorted), &plan);

        // The full toy rule set, three tables, sorted and unsorted.
        let (model, rules) = (Toy::default(), toy_rules());
        let (mut opt, root) = setup(&model, &rules, SearchConfig::default());
        for props in [ToySort::default(), sorted] {
            let plan = opt.run(root, props).expect("plan");
            assert_priced_by_model(&opt, (root, &props), &plan);
        }
    }

    /// Sorted scans only: table scans that deliver the order, no joins.
    struct SortedOnly;

    impl crate::ImplRule<Counted> for SortedOnly {
        fn name(&self) -> &'static str {
            "sorted-only"
        }
        fn implementations(
            &self,
            _model: &Counted,
            _memo: &Memo<Counted>,
            expr: &crate::Expr<Counted>,
            _required: &ToySort,
            out: &mut Vec<crate::Candidate<Counted>>,
        ) {
            if let ToyOp::Table(t) = expr.op {
                out.push(crate::Candidate {
                    op: ToyPOp::SortedScan(t),
                    inputs: Inputs::none(),
                    delivers: ToySort { sorted: true },
                });
            }
        }
    }

    #[test]
    fn reused_buffers_carry_nothing_over() {
        // Rewrites: the first rule emits two on Join(A, B), the second
        // none on the same expression.
        let model = Toy::default();
        let first = |memo: &Memo<Toy>, g| memo.expr(memo.group_exprs(g)[0]).op.clone();
        let rules = RuleSet {
            transforms: vec![
                Box::new(Scripted(
                    move |memo: &Memo<Toy>, e: &crate::Expr<Toy>, out: &mut Rewrites<ToyOp>| {
                        let ab = [ToyOp::Table(0), ToyOp::Table(1)];
                        if e.op != ToyOp::Join || e.children.iter().map(|&g| first(memo, g)).ne(ab)
                        {
                            return;
                        }
                        let [a, b] = [0, 1].map(|i| out.group(e.children[i]));
                        let ba = out.op(ToyOp::Join, [b, a]);
                        out.emit(ba);
                        let ab = out.op(ToyOp::Join, [a, b]);
                        out.emit(ab);
                    },
                )) as Box<dyn crate::TransformRule<Toy>>,
                Box::new(Scripted(
                    |_: &Memo<Toy>, _: &crate::Expr<Toy>, _: &mut Rewrites<ToyOp>| {},
                )),
            ],
            impls: vec![],
            enforcers: vec![],
        };
        let mut opt = Optimizer::new(&model, &rules, SearchConfig::default());
        let [a, b] = [0, 1].map(|t| opt.memo.insert(&model, ToyOp::Table(t), vec![]).0);
        let root = opt.memo.insert(&model, ToyOp::Join, vec![a, b]).0;
        opt.explore_all();
        assert_eq!(opt.stats.exprs_generated, 2);
        assert_eq!(opt.memo.group_exprs(root).len(), 2);

        // Candidates: the first rule's are all rejected by `satisfies`;
        // the second rule's are priced as they are without the first.
        let priced = |impls: Vec<Box<dyn crate::ImplRule<Counted>>>| {
            let model = Counted::default();
            let rules = RuleSet {
                transforms: vec![],
                impls,
                enforcers: vec![],
            };
            let mut opt = Optimizer::new(&model, &rules, SearchConfig::default());
            let t = opt.memo.insert(&model, ToyOp::Table(0), vec![]).0;
            opt.run(t, ToySort { sorted: true }).expect("plan");
            let candidates = opt.stats.candidates;
            (model.priced.take(), candidates)
        };
        let alone = priced(vec![Box::new(SortedOnly)]);
        assert_eq!(alone, (vec![ToyPOp::SortedScan(0)], 1));
        let after_rejects = priced(vec![Box::new(Unordered), Box::new(SortedOnly)]);
        assert_eq!(after_rejects, (alone.0, 2));
    }

    #[test]
    fn infeasible_goal_yields_none() {
        // A model-level impossibility: requiring sorted output from a
        // rule set without enforcers and without index scans.
        let model = Toy::default();
        let rules = RuleSet {
            transforms: vec![],
            impls: vec![Box::new(crate::toy::HashJoinImpl)],
            enforcers: vec![],
        };
        let mut opt = Optimizer::new(&model, &rules, SearchConfig::default());
        let a = opt.memo.insert(&model, ToyOp::Table(0), vec![]).0;
        assert!(opt.run(a, ToySort { sorted: true }).is_none());
    }
}
