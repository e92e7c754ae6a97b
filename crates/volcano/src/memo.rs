//! The memo: groups of logically equivalent expressions.
//!
//! Design notes (see DESIGN.md §4):
//!
//! * **Arenas + ids.** Groups and expressions live in `Vec`s addressed by
//!   [`GroupId`]/[`ExprId`]; expressions hold child *group* ids, inline
//!   ([`Inputs`]). No reference counting, no interior mutability —
//!   rewriting is pure index manipulation.
//! * **Duplicate elimination.** A hash map from `(operator, normalized
//!   child groups)` to expression detects when a transformation produces an
//!   expression the memo already holds. This is what makes exhaustive
//!   transformation terminate, and it is also the paper's "global common
//!   subexpression factorization ... for free".
//! * **Group merging.** When a top-level rewrite of group *A* produces an
//!   expression already present in group *B*, the two groups are proven
//!   equivalent and merged through a union-find. Only the expressions
//!   that mention the losing group change key: they are taken out of the
//!   map, normalized and put back in ascending id order. One that now
//!   duplicates an earlier expression is retired (same group) or proves
//!   two more groups equal (a cascading merge), to fixpoint.

use crate::fx::FxBuild;
use crate::inputs::Inputs;
use crate::model::OptModel;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;

/// Identifier of a memo group (an equivalence class of expressions).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(u32);

impl GroupId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G{}", self.0)
    }
}

/// Identifier of a memo expression.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(u32);

impl ExprId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    pub(crate) fn from_index(i: usize) -> Self {
        ExprId(i as u32)
    }
}

impl fmt::Debug for ExprId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

/// A logical expression in the memo: an operator over child groups.
#[derive(Debug)]
pub struct Expr<M: OptModel> {
    /// The operator.
    pub op: M::LOp,
    /// Child groups (normalized at insertion; callers should re-normalize
    /// through [`Memo::find`] after merges).
    pub children: Inputs,
    /// Owning group.
    pub group: GroupId,
}

// Manual Clone: deriving would require `M: Clone` on the model type.
impl<M: OptModel> Clone for Expr<M> {
    fn clone(&self) -> Self {
        Expr {
            op: self.op.clone(),
            children: self.children,
            group: self.group,
        }
    }
}

/// Where a transformation rule writes its rewrites: flat nodes in a
/// buffer the search owns and clears before every firing, so a firing
/// allocates nothing once the buffer has grown to fit. A node is an
/// existing group ([`Rewrites::group`]) or an operator over earlier nodes
/// ([`Rewrites::op`]); [`Rewrites::emit`] marks a node as one rewrite,
/// whose operator joins the group the rule fired on.
pub struct Rewrites<L> {
    nodes: Vec<RewritePart<L>>,
    emitted: Vec<RewriteNode>,
}

/// A node of a [`Rewrites`] buffer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RewriteNode(u32);

/// What a [`RewriteNode`] stands for.
#[derive(Clone, Debug)]
pub enum RewritePart<L> {
    /// A new or existing operator over earlier nodes.
    Op(L, Inputs<RewriteNode>),
    /// An existing group, passed through unchanged.
    Group(GroupId),
}

impl<L> Default for Rewrites<L> {
    fn default() -> Self {
        Rewrites {
            nodes: Vec::new(),
            emitted: Vec::new(),
        }
    }
}

impl<L> Rewrites<L> {
    fn push(&mut self, part: RewritePart<L>) -> RewriteNode {
        self.nodes.push(part);
        RewriteNode(self.nodes.len() as u32 - 1)
    }

    /// A node for an existing group.
    pub fn group(&mut self, g: GroupId) -> RewriteNode {
        self.push(RewritePart::Group(g))
    }

    /// A node for `op` over earlier nodes.
    pub fn op(&mut self, op: L, inputs: impl Into<Inputs<RewriteNode>>) -> RewriteNode {
        self.push(RewritePart::Op(op, inputs.into()))
    }

    /// Emits the rewrite rooted at `root`.
    pub fn emit(&mut self, root: RewriteNode) {
        self.emitted.push(root);
    }

    /// The roots emitted since the last [`clear`](Self::clear), in order.
    pub fn emitted(&self) -> &[RewriteNode] {
        &self.emitted
    }

    /// What a node stands for.
    pub fn part(&self, node: RewriteNode) -> &RewritePart<L> {
        &self.nodes[node.0 as usize]
    }

    /// Forgets every node and rewrite, keeping the capacity.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.emitted.clear();
    }
}

struct Group<M: OptModel> {
    /// Live member expressions, in the order they joined the group.
    exprs: Vec<ExprId>,
    props: M::LProps,
    /// How many expressions ever joined (inserted or merged in). Unlike
    /// `exprs.len()` it never falls when a duplicate is retired, so
    /// [`Memo::group_version`] changes whenever the group gains a member.
    joined: u32,
}

/// Live expressions waiting to be put (back) into the dedup map, lowest
/// id first — the order in which a scan over the arena would meet them.
type Pending = BinaryHeap<Reverse<ExprId>>;

type DedupMap<M> = HashMap<(<M as OptModel>::LOp, Inputs), ExprId, FxBuild>;

/// The memo structure.
pub struct Memo<M: OptModel> {
    exprs: Vec<Expr<M>>,
    dead: Vec<bool>,
    groups: Vec<Group<M>>,
    /// Union-find parent; `parent[i] == i` for representatives.
    parent: Vec<u32>,
    /// `(operator, children)` of every live expression → that expression.
    /// Children of live expressions are always representatives.
    dedup: DedupMap<M>,
    /// Group merges performed; the merge tests count cascades with it.
    #[cfg(test)]
    merges: u64,
    /// Merge by rebuilding the whole map: the reference the incremental
    /// merge is tested against.
    #[cfg(test)]
    rebuild_on_merge: bool,
}

impl<M: OptModel> Default for Memo<M> {
    fn default() -> Self {
        Memo {
            exprs: Vec::new(),
            dead: Vec::new(),
            groups: Vec::new(),
            parent: Vec::new(),
            dedup: HashMap::default(),
            #[cfg(test)]
            merges: 0,
            #[cfg(test)]
            rebuild_on_merge: false,
        }
    }
}

impl<M: OptModel> Memo<M> {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Representative group of `g` under merges.
    pub fn find(&self, g: GroupId) -> GroupId {
        let mut i = g.0;
        while self.parent[i as usize] != i {
            i = self.parent[i as usize];
        }
        GroupId(i)
    }

    fn normalize(&self, children: Inputs) -> Inputs {
        children.map(|c| self.find(c))
    }

    /// Inserts an expression, finding or creating its group. Returns
    /// `(group, expr, inserted)`; `inserted` is false when the expression
    /// already existed.
    pub fn insert(
        &mut self,
        model: &M,
        op: M::LOp,
        children: impl Into<Inputs>,
    ) -> (GroupId, ExprId, bool) {
        // Build the dedup key exactly once; on a miss it is moved into
        // `push_expr`, which splits it between the map and the arena.
        let key = (op, self.normalize(children.into()));
        if let Some(&e) = self.dedup.get(&key) {
            return (self.find(self.exprs[e.index()].group), e, false);
        }
        let inputs = key.1.map(|c| &self.groups[c.index()].props);
        let props = model.derive_props(&key.0, &inputs);
        let g = GroupId(self.groups.len() as u32);
        self.groups.push(Group {
            exprs: Vec::new(),
            props,
            joined: 0,
        });
        self.parent.push(g.0);
        let e = self.push_expr(key, g);
        (g, e, true)
    }

    fn push_expr(&mut self, key: (M::LOp, Inputs), g: GroupId) -> ExprId {
        let e = ExprId(self.exprs.len() as u32);
        self.exprs.push(Expr {
            op: key.0.clone(),
            children: key.1,
            group: g,
        });
        self.dedup.insert(key, e);
        self.dead.push(false);
        let group = &mut self.groups[g.index()];
        group.exprs.push(e);
        group.joined += 1;
        e
    }

    /// Inserts an expression *into a specific group* (the result of a
    /// top-level rewrite). If the expression already exists in another
    /// group, the groups are merged. Returns whether the memo changed.
    pub fn insert_into(
        &mut self,
        _model: &M,
        group: GroupId,
        op: M::LOp,
        children: impl Into<Inputs>,
    ) -> bool {
        let group = self.find(group);
        let key = (op, self.normalize(children.into()));
        if let Some(&e) = self.dedup.get(&key) {
            let other = self.find(self.exprs[e.index()].group);
            if other != group {
                self.merge(group, other);
                return true;
            }
            return false;
        }
        self.push_expr(key, group);
        true
    }

    /// Materializes the emitted rewrite rooted at `root`, inputs first,
    /// inserting its top operator into `target`. Returns whether the memo
    /// changed.
    pub fn insert_emitted(
        &mut self,
        model: &M,
        target: GroupId,
        rw: &Rewrites<M::LOp>,
        root: RewriteNode,
    ) -> bool {
        match rw.part(root) {
            RewritePart::Group(g) => {
                // A bare group at top level asserts target ≡ g.
                let (a, b) = (self.find(target), self.find(*g));
                if a != b {
                    self.merge(a, b);
                    true
                } else {
                    false
                }
            }
            RewritePart::Op(op, inputs) => {
                let children = inputs.map(|n| self.materialize(model, rw, n));
                self.insert_into(model, target, op.clone(), children)
            }
        }
    }

    fn materialize(&mut self, model: &M, rw: &Rewrites<M::LOp>, node: RewriteNode) -> GroupId {
        match rw.part(node) {
            RewritePart::Group(g) => self.find(*g),
            RewritePart::Op(op, inputs) => {
                let children = inputs.map(|n| self.materialize(model, rw, n));
                self.insert(model, op.clone(), children).0
            }
        }
    }

    /// Merges two distinct representative groups and restores the dedup
    /// invariant. Re-keying in ascending id order makes every decision the
    /// one a scan of the whole arena would make: of two equal expressions
    /// the older survives, and cascading merges happen in the order their
    /// younger witnesses appear.
    fn merge(&mut self, a: GroupId, b: GroupId) {
        #[cfg(test)]
        if self.rebuild_on_merge {
            return self.merge_by_rebuild(a, b);
        }
        let mut pending = Pending::new();
        self.union(a, b, &mut pending);
        while let Some(Reverse(e)) = pending.pop() {
            if self.dead[e.index()] {
                continue;
            }
            self.exprs[e.index()].children = self.normalize(self.exprs[e.index()].children);
            let expr = &self.exprs[e.index()];
            let earlier = match self.dedup.entry((expr.op.clone(), expr.children)) {
                Entry::Vacant(slot) => {
                    slot.insert(e);
                    continue;
                }
                Entry::Occupied(mut slot) => match *slot.get() {
                    holder if holder == e => continue, // queued twice
                    holder if holder > e => {
                        // The older expression owns the key; the younger
                        // one meets it again when its own turn comes.
                        slot.insert(e);
                        pending.push(Reverse(holder));
                        continue;
                    }
                    holder => holder,
                },
            };
            let g1 = self.find(self.exprs[earlier.index()].group);
            let g2 = self.find(expr.group);
            if g1 == g2 {
                // True duplicate within one group: retire it.
                self.dead[e.index()] = true;
                self.groups[g2.index()].exprs.retain(|&x| x != e);
            } else {
                // Equal expressions in two groups prove the groups equal;
                // `e` is retired when it comes round again.
                self.union(g1, g2, &mut pending);
                pending.push(Reverse(e));
            }
        }
    }

    /// Points the higher-numbered of two representatives at the lower
    /// (whose properties win) and moves its members over. Returns the
    /// group that lost its standing.
    fn link(&mut self, a: GroupId, b: GroupId) -> GroupId {
        let (win, lose) = if a.0 < b.0 { (a, b) } else { (b, a) };
        self.parent[lose.0 as usize] = win.0;
        let moved = std::mem::take(&mut self.groups[lose.index()].exprs);
        for e in &moved {
            self.exprs[e.index()].group = win;
        }
        let into = &mut self.groups[win.index()];
        into.joined += moved.len() as u32;
        into.exprs.extend(moved);
        #[cfg(test)]
        {
            self.merges += 1;
        }
        lose
    }

    /// [`link`](Self::link)s two representatives, then takes every live
    /// expression that mentions the loser out of the dedup map and into
    /// `pending`: those are the only keys the union changes.
    fn union(&mut self, a: GroupId, b: GroupId, pending: &mut Pending) {
        let lose = self.link(a, b);
        for (i, expr) in self.exprs.iter().enumerate() {
            if self.dead[i] || !expr.children.contains(&lose) {
                continue;
            }
            let e = ExprId(i as u32);
            // Still under its old key unless an earlier union of this
            // cascade already took it out.
            if let Entry::Occupied(slot) = self.dedup.entry((expr.op.clone(), expr.children)) {
                if *slot.get() == e {
                    slot.remove();
                }
            }
            pending.push(Reverse(e));
        }
    }

    /// Live expressions of a group, in the order they joined it.
    pub fn group_exprs(&self, g: GroupId) -> &[ExprId] {
        &self.groups[self.find(g).index()].exprs
    }

    /// An expression by id.
    pub fn expr(&self, e: ExprId) -> &Expr<M> {
        &self.exprs[e.index()]
    }

    /// Whether an expression was retired by deduplication.
    pub fn is_dead(&self, e: ExprId) -> bool {
        self.dead[e.index()]
    }

    /// Logical properties of a group.
    pub fn props(&self, g: GroupId) -> &M::LProps {
        &self.groups[self.find(g).index()].props
    }

    /// All live expression ids, ascending.
    pub fn live_exprs(&self) -> impl Iterator<Item = ExprId> + '_ {
        (0..self.exprs.len())
            .filter(|&i| !self.dead[i])
            .map(ExprId::from_index)
    }

    /// Number of expressions ever created, dead ones included: ids run
    /// from zero to here.
    pub(crate) fn expr_slots(&self) -> usize {
        self.exprs.len()
    }

    /// Number of live (representative) groups.
    pub fn group_count(&self) -> usize {
        (0..self.groups.len())
            .filter(|&i| self.parent[i] == i as u32)
            .count()
    }

    /// Number of live expressions.
    pub fn expr_count(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }

    /// A small fingerprint of a group's current contents, used by the
    /// search engine to decide whether a rule must re-fire on an
    /// expression whose children have since grown: the representative and
    /// how many expressions ever joined it. (The live member count would
    /// not do: a group that retires one duplicate and gains one new
    /// expression between two checks has the same count and a new member.)
    pub fn group_version(&self, g: GroupId) -> u64 {
        let g = self.find(g);
        (g.0 as u64) << 32 | self.groups[g.index()].joined as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::{Toy, ToyOp};

    /// The unit tests spell children as `vec![..]`; more than two is a
    /// broken test.
    impl From<Vec<GroupId>> for Inputs {
        fn from(children: Vec<GroupId>) -> Self {
            let children = Inputs::try_from(&children[..]).expect("at most two children");
            children.map(|&g| g)
        }
    }

    /// A rewrite as a tree, the shape the memo tests write by hand.
    #[derive(Clone, Debug)]
    enum Rewrite<L> {
        /// An operator over sub-rewrites.
        Op(L, Vec<Rewrite<L>>),
        /// An existing group.
        Group(GroupId),
    }

    impl<L> Rewrite<L> {
        /// Writes the tree into `out`, returning its root node.
        fn write(self, out: &mut Rewrites<L>) -> RewriteNode {
            match self {
                Rewrite::Group(g) => out.group(g),
                Rewrite::Op(op, subs) => {
                    let subs: Vec<RewriteNode> = subs.into_iter().map(|s| s.write(out)).collect();
                    let inputs = Inputs::try_from(&subs[..]).expect("at most two inputs");
                    out.op(op, inputs.map(|&n| n))
                }
            }
        }
    }

    impl<M: OptModel> Memo<M> {
        /// Emits `rw` alone and inserts it into `target`.
        fn insert_rewrite(&mut self, model: &M, target: GroupId, rw: Rewrite<M::LOp>) -> bool {
            let mut out = Rewrites::default();
            let root = rw.write(&mut out);
            out.emit(root);
            self.insert_emitted(model, target, &out, root)
        }
    }

    /// The reference merge: union, then throw the dedup map away and
    /// rebuild it from a scan of the whole arena, restarting on every
    /// cascading merge. This is what the memo did before merges became
    /// incremental; it stays as the oracle the incremental merge must
    /// agree with step for step (`incremental_merge_matches_rebuild_*`).
    impl<M: OptModel> Memo<M> {
        fn with_rebuilding_merge() -> Self {
            Memo {
                rebuild_on_merge: true,
                ..Self::default()
            }
        }

        pub(super) fn merge_by_rebuild(&mut self, a: GroupId, b: GroupId) {
            self.link(a, b);
            loop {
                let mut map = DedupMap::<M>::default();
                let mut cascade: Option<(GroupId, GroupId)> = None;
                for i in 0..self.exprs.len() {
                    if self.dead[i] {
                        continue;
                    }
                    let e = ExprId(i as u32);
                    let norm = self.normalize(self.exprs[i].children);
                    self.exprs[i].children = norm;
                    match map.entry((self.exprs[i].op.clone(), norm)) {
                        Entry::Vacant(slot) => {
                            slot.insert(e);
                        }
                        Entry::Occupied(first) => {
                            let g1 = self.find(self.exprs[first.get().index()].group);
                            let g2 = self.find(self.exprs[i].group);
                            if g1 == g2 {
                                self.dead[i] = true;
                                self.groups[g2.index()].exprs.retain(|&x| x != e);
                            } else {
                                cascade = Some((g1, g2));
                                break;
                            }
                        }
                    }
                }
                match cascade {
                    Some((g1, g2)) => {
                        self.link(g1, g2);
                    }
                    None => {
                        self.dedup = map;
                        return;
                    }
                }
            }
        }

        /// Everything observable about the memo — arena, liveness, group
        /// partition and member order, join counters, dedup keys — as one
        /// comparable string.
        fn snapshot(&self) -> String {
            let mut keys: Vec<String> = self
                .dedup
                .iter()
                .map(|((op, ch), e)| format!("{op:?}{ch:?}->{e:?}"))
                .collect();
            keys.sort();
            let exprs: Vec<String> = (0..self.exprs.len())
                .map(|i| {
                    let x = &self.exprs[i];
                    // A dead expression's children are never read again.
                    let ch = if self.dead[i] {
                        &[][..]
                    } else {
                        &x.children[..]
                    };
                    format!("{:?}{ch:?}@{:?}{}", x.op, x.group, self.dead[i])
                })
                .collect();
            let groups: Vec<String> = (0..self.groups.len())
                .map(|g| {
                    let rep = self.find(GroupId(g as u32));
                    format!(
                        "{rep:?}{:?}#{}",
                        self.groups[g].exprs, self.groups[g].joined
                    )
                })
                .collect();
            format!("{exprs:?}\n{groups:?}\n{keys:?}\n{}", self.merges)
        }
    }

    /// One step of a random memo history, applied to both memos.
    fn random_step(rng: &mut u64, memos: [&mut Memo<Toy>; 2], model: &Toy) {
        let mut next = |bound: usize| {
            // SplitMix64.
            *rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let groups = memos[0].groups.len();
        let kind = next(10);
        let [a, b, c, target] = [(); 4].map(|()| GroupId(next(groups) as u32));
        let table = next(4) as u32;
        let join = |l, r| Rewrite::Op(ToyOp::Join, vec![l, r]);
        for memo in memos {
            match kind {
                // Grow: a new leaf, or a join over two existing groups.
                0 => {
                    memo.insert(model, ToyOp::Table(table), vec![]);
                }
                1..=3 => {
                    memo.insert(model, ToyOp::Join, vec![a, b]);
                }
                // Rewrite a group to a one- or two-level join.
                4..=6 => {
                    memo.insert_rewrite(model, target, join(Rewrite::Group(a), Rewrite::Group(b)));
                }
                7 | 8 => {
                    memo.insert_rewrite(
                        model,
                        target,
                        join(
                            Rewrite::Group(a),
                            join(Rewrite::Group(b), Rewrite::Group(c)),
                        ),
                    );
                }
                // Assert two groups equal outright.
                _ => {
                    memo.insert_rewrite(model, target, Rewrite::Group(a));
                }
            }
        }
    }

    #[test]
    fn incremental_merge_matches_rebuild_on_random_histories() {
        let model = Toy::default();
        let (mut merges, mut cascades, mut retired) = (0, 0, 0);
        for seed in 0..400u64 {
            let mut rng = seed;
            let mut inc = Memo::<Toy>::new();
            let mut oracle = Memo::<Toy>::with_rebuilding_merge();
            for memo in [&mut inc, &mut oracle] {
                for t in 0..4 {
                    memo.insert(&model, ToyOp::Table(t), vec![]);
                }
            }
            for step in 0..40 {
                let before = inc.merges;
                random_step(&mut rng, [&mut inc, &mut oracle], &model);
                assert_eq!(
                    inc.snapshot(),
                    oracle.snapshot(),
                    "seed {seed}, step {step}"
                );
                let delta = inc.merges - before;
                merges += delta;
                cascades += u64::from(delta >= 3);
            }
            retired += inc.dead.iter().filter(|&&d| d).count();
        }
        // The histories do reach what they are meant to test.
        assert!(merges > 1000, "{merges} merges");
        assert!(
            cascades > 20,
            "{cascades} steps cascaded through >= 2 more merges"
        );
        assert!(retired > 1000, "{retired} duplicates retired");
    }

    #[test]
    fn incremental_merge_matches_rebuild_through_a_two_level_cascade() {
        let model = Toy::default();
        let mut inc = Memo::<Toy>::new();
        let mut oracle = Memo::<Toy>::with_rebuilding_merge();
        for memo in [&mut inc, &mut oracle] {
            let [a, b, c, d] = [0, 1, 2, 3].map(|t| scan(memo, &model, t));
            let (ab, _, _) = memo.insert(&model, ToyOp::Join, vec![a, b]);
            let (ba, _, _) = memo.insert(&model, ToyOp::Join, vec![b, a]);
            // Two towers over the two (not yet merged) join groups; the
            // second tower's levels are created first, so the younger
            // witness of each cascading merge is in the *first* tower.
            let (ba_c, _, _) = memo.insert(&model, ToyOp::Join, vec![ba, c]);
            let (ba_c_d, _, _) = memo.insert(&model, ToyOp::Join, vec![ba_c, d]);
            let (ab_c, _, _) = memo.insert(&model, ToyOp::Join, vec![ab, c]);
            let (ab_c_d, _, _) = memo.insert(&model, ToyOp::Join, vec![ab_c, d]);
            // ab ≡ ba makes Join(ab, c) ≡ Join(ba, c), which in turn makes
            // Join(·, d) over them equal: three merges from one insert.
            memo.insert_rewrite(
                &model,
                ba,
                Rewrite::Op(ToyOp::Join, vec![Rewrite::Group(a), Rewrite::Group(b)]),
            );
            assert_eq!(memo.merges, 3);
            assert_eq!(memo.find(ab_c), memo.find(ba_c));
            assert_eq!(memo.find(ab_c_d), memo.find(ba_c_d));
            // Each upper level lost the younger of its two equal joins.
            assert_eq!(memo.group_exprs(ab_c).len(), 1);
            assert_eq!(memo.group_exprs(ab_c_d).len(), 1);
            assert_eq!(memo.expr_count(), 4 + 2 + 1 + 1);
        }
        assert_eq!(inc.snapshot(), oracle.snapshot());
    }

    fn scan(memo: &mut Memo<Toy>, model: &Toy, t: u32) -> GroupId {
        memo.insert(model, ToyOp::Table(t), vec![]).0
    }

    #[test]
    fn insert_dedups() {
        let model = Toy::default();
        let mut memo = Memo::new();
        let a = scan(&mut memo, &model, 0);
        let a2 = scan(&mut memo, &model, 0);
        assert_eq!(a, a2);
        assert_eq!(memo.group_count(), 1);
        assert_eq!(memo.expr_count(), 1);
    }

    #[test]
    fn rewrite_into_same_group_dedups() {
        let model = Toy::default();
        let mut memo = Memo::new();
        let a = scan(&mut memo, &model, 0);
        let b = scan(&mut memo, &model, 1);
        let (j, _, _) = memo.insert(&model, ToyOp::Join, vec![a, b]);
        // Commuted join: new expression in the same group.
        assert!(memo.insert_rewrite(
            &model,
            j,
            Rewrite::Op(ToyOp::Join, vec![Rewrite::Group(b), Rewrite::Group(a)])
        ));
        assert_eq!(memo.group_exprs(j).len(), 2);
        // Applying the same rewrite again changes nothing.
        assert!(!memo.insert_rewrite(
            &model,
            j,
            Rewrite::Op(ToyOp::Join, vec![Rewrite::Group(b), Rewrite::Group(a)])
        ));
        assert_eq!(memo.group_exprs(j).len(), 2);
    }

    #[test]
    fn top_level_duplicate_merges_groups() {
        let model = Toy::default();
        let mut memo = Memo::new();
        let a = scan(&mut memo, &model, 0);
        let b = scan(&mut memo, &model, 1);
        let (j1, _, _) = memo.insert(&model, ToyOp::Join, vec![a, b]);
        let (j2, _, _) = memo.insert(&model, ToyOp::Join, vec![b, a]);
        assert_ne!(j1, j2);
        // Commuting j2 produces Join(a, b) — already the anchor of j1 —
        // proving j1 ≡ j2.
        memo.insert_rewrite(
            &model,
            j2,
            Rewrite::Op(ToyOp::Join, vec![Rewrite::Group(a), Rewrite::Group(b)]),
        );
        assert_eq!(memo.find(j1), memo.find(j2));
        assert_eq!(memo.group_exprs(j1).len(), 2);
        assert_eq!(memo.merges, 1);
    }

    #[test]
    fn cascading_merges_deduplicate_parents() {
        let model = Toy::default();
        let mut memo = Memo::new();
        let a = scan(&mut memo, &model, 0);
        let b = scan(&mut memo, &model, 1);
        let c = scan(&mut memo, &model, 2);
        let (ab1, _, _) = memo.insert(&model, ToyOp::Join, vec![a, b]);
        let (ab2, _, _) = memo.insert(&model, ToyOp::Join, vec![b, a]);
        // Two parents over the two (not yet merged) join groups.
        let (p1, _, _) = memo.insert(&model, ToyOp::Join, vec![ab1, c]);
        let (p2, _, _) = memo.insert(&model, ToyOp::Join, vec![ab2, c]);
        assert_ne!(memo.find(p1), memo.find(p2));
        // Merging the child groups must cascade into the parents, because
        // Join(ab, c) becomes a duplicate expression.
        memo.insert_rewrite(
            &model,
            ab2,
            Rewrite::Op(ToyOp::Join, vec![Rewrite::Group(a), Rewrite::Group(b)]),
        );
        assert_eq!(memo.find(ab1), memo.find(ab2));
        assert_eq!(memo.find(p1), memo.find(p2), "parent groups must merge");
    }

    #[test]
    fn nested_rewrite_creates_subgroups() {
        let model = Toy::default();
        let mut memo = Memo::new();
        let a = scan(&mut memo, &model, 0);
        let b = scan(&mut memo, &model, 1);
        let c = scan(&mut memo, &model, 2);
        let (abc, _, _) = {
            let (ab, _, _) = memo.insert(&model, ToyOp::Join, vec![a, b]);
            memo.insert(&model, ToyOp::Join, vec![ab, c])
        };
        let before = memo.group_count();
        // Associate: Join(Join(a,b),c) → Join(a, Join(b,c)).
        memo.insert_rewrite(
            &model,
            abc,
            Rewrite::Op(
                ToyOp::Join,
                vec![
                    Rewrite::Group(a),
                    Rewrite::Op(ToyOp::Join, vec![Rewrite::Group(b), Rewrite::Group(c)]),
                ],
            ),
        );
        assert_eq!(memo.group_count(), before + 1, "one new group: Join(b,c)");
        assert_eq!(memo.group_exprs(abc).len(), 2);
    }

    /// A model whose operators take any number of inputs and derive
    /// nothing: only the dedup keys tell its expressions apart.
    struct Bag;

    impl OptModel for Bag {
        type LOp = u8;
        type POp = ();
        type LProps = ();
        type PProps = ();
        type Cost = f64;
        fn derive_props(&self, _op: &u8, _inputs: &[&()]) {}
        fn cost(&self, _op: &(), _inputs: &[&()]) -> f64 {
            0.0
        }
        fn satisfies(&self, _required: &(), _delivered: &()) -> bool {
            true
        }
        fn tag(&self, _op: &u8) -> &'static str {
            "Bag"
        }
    }

    #[test]
    fn dedup_keys_tell_arities_apart() {
        let mut memo = Memo::new();
        let (a, _, _) = memo.insert(&Bag, 0, vec![]);
        let (b, _, _) = memo.insert(&Bag, 1, vec![]);
        // Operator 2 over no input, one input and two: the one-input key
        // and both two-input keys share their first group.
        let shapes = [vec![], vec![a], vec![a, b], vec![a, a]];
        let groups = shapes
            .clone()
            .map(|children| memo.insert(&Bag, 2, children))
            .map(|(g, _, inserted)| {
                assert!(inserted);
                g
            });
        for (i, g) in groups.iter().enumerate() {
            assert!(!groups[..i].contains(g), "{groups:?}");
        }
        for (children, g) in shapes.into_iter().zip(groups) {
            assert_eq!(
                memo.insert(&Bag, 2, children),
                (g, memo.group_exprs(g)[0], false)
            );
        }
        assert_eq!(memo.expr_count(), 6);

        // Built through a rewrite, each is the expression `insert` built:
        // as an inner node it names that group, and a new parent over it
        // is the only thing the rewrite adds.
        let [_, one, two, _] = groups;
        let top = memo.insert(&Bag, 3, vec![a]).0;
        assert!(memo.insert_rewrite(
            &Bag,
            top,
            Rewrite::Op(
                4,
                vec![
                    Rewrite::Op(2, vec![Rewrite::Group(a)]),
                    Rewrite::Op(2, vec![Rewrite::Group(a), Rewrite::Group(b)]),
                ],
            ),
        ));
        let added = memo.expr(*memo.group_exprs(top).last().unwrap());
        assert_eq!(added.children[..], [one, two]);
        assert_eq!((memo.expr_count(), memo.group_count()), (8, 7));
        // At the top, it proves its target equal to the group holding it.
        assert!(memo.insert_rewrite(&Bag, top, Rewrite::Op(2, vec![Rewrite::Group(a)])));
        assert_eq!(memo.find(top), memo.find(one));
    }

    #[test]
    fn dedup_keys_find_duplicates_after_a_merge_renormalises_them() {
        let mut memo = Memo::new();
        let [c, d] = [0, 1].map(|op| memo.insert(&Bag, op, vec![]).0);
        let shapes = [vec![c], vec![d], vec![c, d], vec![d, d], vec![d, c]];
        let [c1, d1, cd, dd, dc] = shapes.map(|children| memo.insert(&Bag, 2, children).0);
        assert_eq!(memo.group_count(), 7);
        // c ≡ d turns every pair above into a duplicate of one with the
        // same arity, and no one-input key into a two-input one.
        assert!(memo.insert_rewrite(&Bag, c, Rewrite::Group(d)));
        assert_eq!(memo.find(c1), memo.find(d1));
        assert_eq!(memo.find(cd), memo.find(dd));
        assert_eq!(memo.find(cd), memo.find(dc));
        assert_ne!(memo.find(c1), memo.find(cd));
        assert_eq!((memo.group_count(), memo.expr_count()), (3, 4));
        // Every spelling of a merged key is found, under either group.
        for (children, g) in [
            (vec![d], c1),
            (vec![c], d1),
            (vec![d, c], cd),
            (vec![c, c], dd),
        ] {
            let (found, _, inserted) = memo.insert(&Bag, 2, children);
            assert!(!inserted);
            assert_eq!(found, memo.find(g));
        }
        assert!(!memo.insert_into(&Bag, dd, 2, vec![c, d]));
        assert_eq!(memo.expr_count(), 4);
    }

    #[test]
    fn props_derive_bottom_up() {
        let model = Toy::default();
        let mut memo = Memo::new();
        let a = scan(&mut memo, &model, 0); // card 100
        let b = scan(&mut memo, &model, 1); // card 1000
        let (j, _, _) = memo.insert(&model, ToyOp::Join, vec![a, b]);
        // Toy join card = product / 10.
        assert_eq!(memo.props(j).card, 100.0 * 1000.0 / 10.0);
    }
}
