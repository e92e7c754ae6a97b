//! Property-based tests for the memo and search engine, using the toy
//! model: structural invariants under randomized insertion, equivalence
//! merging across arbitrary initial join shapes, and winner optimality
//! verified against brute-force enumeration.

use proptest::prelude::*;
use volcano::toy::{toy_rules, Toy, ToyOp, ToyPOp, ToySort};
use volcano::{EnumLimits, GroupId, Memo, Optimizer, PlanNode, SearchConfig};

/// A random binary join tree over tables `0..n`, encoded as a shape pick.
#[derive(Clone, Debug)]
enum Tree {
    Leaf(u32),
    Join(Box<Tree>, Box<Tree>),
}

fn tree_over(tables: Vec<u32>) -> BoxedStrategy<Tree> {
    if tables.len() == 1 {
        return Just(Tree::Leaf(tables[0])).boxed();
    }
    // Split point + recursive shapes.
    (1..tables.len())
        .prop_flat_map(move |split| {
            let (l, r) = (tables[..split].to_vec(), tables[split..].to_vec());
            (tree_over(l), tree_over(r)).prop_map(|(a, b)| Tree::Join(Box::new(a), Box::new(b)))
        })
        .boxed()
}

fn seed_tree(memo: &mut Memo<Toy>, model: &Toy, t: &Tree) -> GroupId {
    match t {
        Tree::Leaf(i) => memo.insert(model, ToyOp::Table(*i), []).0,
        Tree::Join(a, b) => {
            let l = seed_tree(memo, model, a);
            let r = seed_tree(memo, model, b);
            memo.insert(model, ToyOp::Join, [l, r]).0
        }
    }
}

/// A plan's operators, inputs in parentheses: equal for equal plans.
fn render(plan: &PlanNode<Toy>) -> String {
    let inputs: Vec<String> = plan.children.iter().map(render).collect();
    format!("{:?}({})", plan.op, inputs.join(", "))
}

/// Brute-force optimal cost for joining a set of tables under the toy
/// cost model (scan = card; hash join = 2·min + max of input cards;
/// join output card = product / 10).
fn brute_force(model: &Toy, tables: &[u32]) -> (f64, f64) {
    // Returns (card, best cost) for the table set.
    if tables.len() == 1 {
        let c = model.cards[tables[0] as usize];
        return (c, c);
    }
    let mut best = f64::INFINITY;
    let mut card_out = 0.0;
    // All splits into two non-empty subsets (by bitmask).
    let n = tables.len();
    for mask in 1..(1u32 << n) - 1 {
        let (mut l, mut r) = (vec![], vec![]);
        for (i, &t) in tables.iter().enumerate() {
            if mask & (1 << i) != 0 {
                l.push(t);
            } else {
                r.push(t);
            }
        }
        let (lc, lcost) = brute_force(model, &l);
        let (rc, rcost) = brute_force(model, &r);
        let join_cost = 2.0 * lc.min(rc) + lc.max(rc);
        card_out = lc * rc / 10.0;
        best = best.min(lcost + rcost + join_cost);
    }
    (card_out, best)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any two initial join shapes over the same tables merge into ONE
    /// group under exhaustive commutativity + associativity: the memo
    /// discovers the equivalence class.
    #[test]
    fn equivalent_shapes_merge(
        shape_a in tree_over(vec![0, 1, 2, 3]),
        shape_b in tree_over(vec![0, 1, 2, 3]),
    ) {
        let model = Toy::default();
        let rules = toy_rules();
        let mut opt = Optimizer::new(&model, &rules, SearchConfig::default());
        let ga = seed_tree(&mut opt.memo, &model, &shape_a);
        let gb = seed_tree(&mut opt.memo, &model, &shape_b);
        opt.explore_all();
        prop_assert_eq!(
            opt.memo.find(ga),
            opt.memo.find(gb),
            "shapes {:?} and {:?} must prove equivalent",
            shape_a,
            shape_b
        );
    }

    /// Memo structural invariants hold after exploration from any shape:
    /// no duplicate (op, children) pair among live expressions; every live
    /// expression's children are representatives.
    #[test]
    fn memo_invariants_after_exploration(shape in tree_over(vec![0, 1, 2])) {
        let model = Toy::default();
        let rules = toy_rules();
        let mut opt = Optimizer::new(&model, &rules, SearchConfig::default());
        let _ = seed_tree(&mut opt.memo, &model, &shape);
        opt.explore_all();
        let memo = &opt.memo;
        let mut seen = std::collections::HashSet::new();
        for e in memo.live_exprs() {
            let expr = memo.expr(e);
            let norm: Vec<GroupId> = expr.children.iter().map(|&c| memo.find(c)).collect();
            prop_assert!(
                seen.insert((expr.op.clone(), norm.clone())),
                "duplicate live expression {:?} {:?}",
                expr.op,
                norm
            );
            for &c in &expr.children {
                prop_assert_eq!(memo.find(memo.find(c)), memo.find(c));
            }
        }
    }

    /// The search engine's winner equals brute-force enumeration over all
    /// join orders, from any starting shape and any table sizes.
    #[test]
    fn winner_matches_brute_force(
        shape in tree_over(vec![0, 1, 2, 3]),
        cards in proptest::collection::vec(1.0f64..10_000.0, 4),
    ) {
        let model = Toy { cards };
        let rules = toy_rules();
        let mut opt = Optimizer::new(&model, &rules, SearchConfig::default());
        let root = seed_tree(&mut opt.memo, &model, &shape);
        let plan = opt.run(root, ToySort::default()).expect("plan");
        let (_, best) = brute_force(&model, &[0, 1, 2, 3]);
        prop_assert!(
            (plan.total_cost() - best).abs() < 1e-6,
            "engine {} vs brute force {}",
            plan.total_cost(),
            best
        );
    }

    /// The enumeration oracle lists each plan of a goal once, and the
    /// search's winner costs the least of them, over any join tree of one
    /// to five tables and either goal.
    #[test]
    fn enumerated_plans_are_distinct_and_the_winner_is_their_minimum(
        shape in (1u32..=5).prop_flat_map(|n| tree_over((0..n).collect())),
        sorted in any::<bool>(),
    ) {
        let model = Toy { cards: vec![100.0, 1000.0, 10.0, 10_000.0, 500.0] };
        let rules = toy_rules();
        let mut opt = Optimizer::new(&model, &rules, SearchConfig::default());
        let root = seed_tree(&mut opt.memo, &model, &shape);
        let goal = ToySort { sorted };
        let winner = opt.run(root, goal).expect("plan").total_cost();
        let en = opt.enumerate_bounded(root, goal, EnumLimits::default());
        prop_assert!(!en.truncated);
        prop_assert_eq!(en.plans.len() as u64, en.count);
        let mut plans: Vec<String> = en.plans.iter().map(render).collect();
        plans.sort();
        plans.dedup();
        prop_assert_eq!(plans.len(), en.plans.len(), "a plan listed twice");
        let min = en.plans.iter().map(PlanNode::total_cost).fold(f64::INFINITY, f64::min);
        prop_assert!(
            (winner - min).abs() <= 1e-9 * min,
            "winner {} vs the space's minimum {}",
            winner,
            min
        );
    }

    /// Requiring sortedness never makes the plan cheaper, and the sorted
    /// winner is either a sort on top or a sorted scan.
    #[test]
    fn sorted_goal_costs_at_least_unsorted(shape in tree_over(vec![0, 1, 2])) {
        let model = Toy::default();
        let rules = toy_rules();
        let mut opt = Optimizer::new(&model, &rules, SearchConfig::default());
        let root = seed_tree(&mut opt.memo, &model, &shape);
        let unsorted = opt.run(root, ToySort::default()).expect("plan");
        opt.optimize_group(root, &ToySort { sorted: true });
        let sorted = opt
            .extract(root, &ToySort { sorted: true })
            .expect("sorted plan");
        prop_assert!(sorted.total_cost() >= unsorted.total_cost());
        prop_assert!(matches!(sorted.op, ToyPOp::Sort | ToyPOp::SortedScan(_)));
    }
}
