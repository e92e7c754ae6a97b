//! Implementation rules: logical operators → execution algorithms.
//!
//! "The optimizer chooses algorithms based on implementation rules, an
//! algorithm's ability to deliver a logical expression with the desired
//! physical properties, and cost estimations." Every rule here checks
//! required properties and returns nothing when it cannot deliver them —
//! the index-scan rule's inability to deliver materialized components in
//! memory is what routes Query 3 through the assembly enforcer.

use crate::model::OodbModel;
use oodb_algebra::{CmpOp, LogicalOp, Operand, PhysProps, PhysicalOp, PredId, VarOrigin, VarSet};
use volcano::{Candidate, Expr, ImplRule, Inputs, Memo};

type M<'e> = OodbModel<'e>;

/// `Get` → sequential file scan of the dense collection pages.
pub struct FileScanImpl;

impl<'e> ImplRule<M<'e>> for FileScanImpl {
    fn name(&self) -> &'static str {
        crate::config::rule_names::FILE_SCAN
    }
    fn consumes(&self) -> &'static [&'static str] {
        &["Get"]
    }
    fn implementations(
        &self,
        _model: &M<'e>,
        _memo: &Memo<M<'e>>,
        expr: &Expr<M<'e>>,
        _required: &PhysProps,
        out: &mut Vec<Candidate<M<'e>>>,
    ) {
        let LogicalOp::Get { coll, var } = expr.op else {
            return;
        };
        out.push(Candidate {
            op: PhysicalOp::FileScan { coll, var },
            inputs: Inputs::none(),
            delivers: PhysProps::in_memory(VarSet::single(var)),
        });
    }
}

/// The **collapse-to-index-scan** rule: a `Select` whose single equality
/// conjunct is covered by an (attribute or path) index collapses the whole
/// select–materialize–get chain into one index scan. "In this case, the
/// mayor component objects are never read into memory" — the scan delivers
/// only the base variable, which is precisely why it cannot serve Query 3
/// directly.
pub struct CollapseToIndexScanImpl;

impl<'e> ImplRule<M<'e>> for CollapseToIndexScanImpl {
    fn name(&self) -> &'static str {
        crate::config::rule_names::COLLAPSE_TO_INDEX_SCAN
    }
    fn consumes(&self) -> &'static [&'static str] {
        &["Select"]
    }
    fn implementations(
        &self,
        model: &M<'e>,
        memo: &Memo<M<'e>>,
        expr: &Expr<M<'e>>,
        _required: &PhysProps,
        out: &mut Vec<Candidate<M<'e>>>,
    ) {
        let LogicalOp::Select { pred } = expr.op else {
            return;
        };
        let p = model.env.preds.pred(pred);
        let [term] = p.terms.as_slice() else {
            return;
        };
        // Equality uses a point lookup; ordered comparisons use a B-tree
        // range scan (an extension beyond the paper's equality-only rule).
        let (var, field) = match (&term.left, &term.right) {
            (Operand::Attr { var, field }, Operand::Const(_))
            | (Operand::Const(_), Operand::Attr { var, field }) => (*var, *field),
            _ => return,
        };
        let Some((coll, base, links)) = model.index_path_of(var) else {
            return;
        };
        let Some((index, _)) = model.env.catalog.find_index(coll, &links, field) else {
            return;
        };
        // The collapsed scan reproduces the *entire* group only if the
        // group's scope is exactly the materialization chain — a join
        // partner's bindings cannot come out of an index.
        let group_vars = memo.props(expr.group).vars;
        if !group_vars.is_subset(model.chain_vars(var)) {
            return;
        }
        // And the input must BE the unfiltered chain: the child group must
        // hold a pure `Mat*(Get)` witness. Without this check, a
        // conjunct-split sibling selection sitting between the Select and
        // the Get would be silently discarded.
        if !pure_mat_chain(memo, expr.children[0], base) {
            return;
        }
        out.push(Candidate {
            op: PhysicalOp::IndexScan {
                index,
                var: base,
                pred,
            },
            inputs: Inputs::none(),
            delivers: PhysProps::in_memory(VarSet::single(base)),
        });
    }
}

/// True when `group` provably denotes the *unfiltered* materialization
/// chain rooted at a `Get` of `base`: some member expression is literally
/// `Mat*(Get{base})`. Because a memo group is an equivalence class, one
/// such witness certifies the whole group's semantics.
fn pure_mat_chain(
    memo: &Memo<OodbModel<'_>>,
    group: volcano::GroupId,
    base: oodb_algebra::VarId,
) -> bool {
    fn walk(
        memo: &Memo<OodbModel<'_>>,
        group: volcano::GroupId,
        base: oodb_algebra::VarId,
        visited: &mut Vec<volcano::GroupId>,
    ) -> bool {
        let g = memo.find(group);
        if visited.contains(&g) {
            return false;
        }
        visited.push(g);
        memo.group_exprs(g).iter().any(|&e| {
            let expr = memo.expr(e);
            match expr.op {
                LogicalOp::Get { var, .. } => var == base,
                LogicalOp::Mat { .. } => walk(memo, expr.children[0], base, visited),
                _ => false,
            }
        })
    }
    walk(memo, group, base, &mut Vec::new())
}

/// Threads a required sort order down to an input that can preserve it
/// (the order's variable must be in the input's scope).
fn pass_order(required: &PhysProps, child_vars: VarSet) -> Option<oodb_algebra::SortSpec> {
    required.order.filter(|o| child_vars.contains(o.var))
}

/// A one-input algorithm over the expression's first input that keeps any
/// required order that input can keep: the input must hold `input` in
/// memory, and `op` delivers that plus `adds`.
fn unary<'e>(
    op: PhysicalOp,
    memo: &Memo<M<'e>>,
    expr: &Expr<M<'e>>,
    required: &PhysProps,
    input: VarSet,
    adds: VarSet,
) -> Candidate<M<'e>> {
    let child = expr.children[0];
    let order = pass_order(required, memo.props(child).vars);
    Candidate {
        op,
        inputs: Inputs::one((
            child,
            PhysProps {
                in_memory: input,
                order,
            },
        )),
        delivers: PhysProps {
            in_memory: input.union(adds),
            order,
        },
    }
}

/// What each input of a join must hold in memory: the required variables
/// and those the predicate reads, each on the side whose scope binds it.
fn join_sides(
    model: &M<'_>,
    memo: &Memo<M<'_>>,
    expr: &Expr<M<'_>>,
    required: &PhysProps,
    pred: PredId,
) -> (VarSet, VarSet) {
    let need = required.in_memory.union(model.pred_mem_vars(pred));
    let side = |i: usize| need.intersect(memo.props(expr.children[i]).vars);
    (side(0), side(1))
}

/// `Select` → `Filter` over in-memory objects.
pub struct FilterImpl;

impl<'e> ImplRule<M<'e>> for FilterImpl {
    fn name(&self) -> &'static str {
        crate::config::rule_names::FILTER
    }
    fn consumes(&self) -> &'static [&'static str] {
        &["Select"]
    }
    fn implementations(
        &self,
        model: &M<'e>,
        memo: &Memo<M<'e>>,
        expr: &Expr<M<'e>>,
        required: &PhysProps,
        out: &mut Vec<Candidate<M<'e>>>,
    ) {
        let LogicalOp::Select { pred } = expr.op else {
            return;
        };
        let input = required.in_memory.union(model.pred_mem_vars(pred));
        let op = PhysicalOp::Filter { pred };
        out.push(unary(op, memo, expr, required, input, VarSet::EMPTY));
    }
}

/// `Join` → hybrid hash join. **Directional**: the hash table is built on
/// the *left* input; for reference equi-joins the left input must be the
/// referenced (OID) side — "this algorithm also supports equality of a
/// reference attribute on one side and object identifiers on the other
/// side". Join commutativity is what brings the referenced side to the
/// left; disable it and this rule goes silent on Mat→Join output, forcing
/// naive pointer chasing (Table 2, "W/o Comm.").
pub struct HybridHashJoinImpl;

impl<'e> ImplRule<M<'e>> for HybridHashJoinImpl {
    fn name(&self) -> &'static str {
        crate::config::rule_names::HYBRID_HASH_JOIN
    }
    fn consumes(&self) -> &'static [&'static str] {
        &["Join"]
    }
    fn implementations(
        &self,
        model: &M<'e>,
        memo: &Memo<M<'e>>,
        expr: &Expr<M<'e>>,
        required: &PhysProps,
        out: &mut Vec<Candidate<M<'e>>>,
    ) {
        let LogicalOp::Join { pred } = expr.op else {
            return;
        };
        let (lg, rg) = (expr.children[0], expr.children[1]);
        let p = model.env.preds.pred(pred);
        // Hashing needs at least one equality term.
        let Some(eq) = p.terms.iter().find(|t| t.op == CmpOp::Eq) else {
            return;
        };
        // Reference equi-join: the build (left) side must hold the
        // referenced objects.
        if let Some((_, target)) = eq.as_ref_eq() {
            if !memo.props(lg).vars.contains(target) {
                return;
            }
        }
        let (l_req, r_req) = join_sides(model, memo, expr, required, pred);
        out.push(Candidate {
            op: PhysicalOp::HybridHashJoin { pred },
            inputs: Inputs::two(
                (lg, PhysProps::in_memory(l_req)),
                (rg, PhysProps::in_memory(r_req)),
            ),
            delivers: PhysProps::in_memory(l_req.union(r_req)),
        });
    }
}

/// `Join` → pointer join (Shekita–Carey): when the right input is a bare
/// scan of the reference's full domain, skip the scan entirely and resolve
/// references by partitioned page fetches — "naive traversal of such
/// references ('goto's on disk')" done as well as it can be done.
pub struct PointerJoinImpl;

impl<'e> ImplRule<M<'e>> for PointerJoinImpl {
    fn name(&self) -> &'static str {
        crate::config::rule_names::POINTER_JOIN
    }
    fn consumes(&self) -> &'static [&'static str] {
        &["Join"]
    }
    fn implementations(
        &self,
        model: &M<'e>,
        memo: &Memo<M<'e>>,
        expr: &Expr<M<'e>>,
        required: &PhysProps,
        out: &mut Vec<Candidate<M<'e>>>,
    ) {
        let LogicalOp::Join { pred } = expr.op else {
            return;
        };
        let p = model.env.preds.pred(pred);
        let [term] = p.terms.as_slice() else {
            return;
        };
        let Some((_, target)) = term.as_ref_eq() else {
            return;
        };
        let rg = expr.children[1];
        let (lp, rp) = (memo.props(expr.children[0]), memo.props(rg));
        // Right side must be exactly the unfiltered domain scan of the
        // target variable (the shape Mat→Join produces).
        if !rp.vars.contains(target) || lp.vars.contains(target) {
            return;
        }
        let Some(domain) = model.var_domain(target) else {
            return;
        };
        let is_pure_get = memo.group_exprs(rg).iter().any(|&e| {
            matches!(
                memo.expr(e).op,
                LogicalOp::Get { coll, var } if coll == domain && var == target
            )
        });
        let dc = model.env.catalog.collection(domain);
        if !is_pure_get || (rp.card - dc.cardinality as f64).abs() > 0.5 {
            return;
        }
        // The target is bound on the right only, so the left's share of
        // the requirement never names it; the right input is not read.
        let (l_req, _) = join_sides(model, memo, expr, required, pred);
        let op = PhysicalOp::PointerJoin { pred };
        out.push(unary(
            op,
            memo,
            expr,
            required,
            l_req,
            VarSet::single(target),
        ));
    }
}

/// `Mat` → assembly: the assembly operator in its *implementation* role.
pub struct AssemblyMatImpl;

impl<'e> ImplRule<M<'e>> for AssemblyMatImpl {
    fn name(&self) -> &'static str {
        crate::config::rule_names::ASSEMBLY_MAT
    }
    fn consumes(&self) -> &'static [&'static str] {
        &["Mat"]
    }
    fn implementations(
        &self,
        model: &M<'e>,
        memo: &Memo<M<'e>>,
        expr: &Expr<M<'e>>,
        required: &PhysProps,
        out: &mut Vec<Candidate<M<'e>>>,
    ) {
        let LogicalOp::Mat { out: target } = expr.op else {
            return;
        };
        let Some(input) = model.mat_input(target, required.in_memory) else {
            return;
        };
        let op = PhysicalOp::Assembly {
            targets: vec![target],
            window: model.config.assembly_window,
        };
        out.push(unary(
            op,
            memo,
            expr,
            required,
            input,
            VarSet::single(target),
        ));
    }
}

/// `Join` → merge join (sort-order extension): for a value equality
/// between attributes, require each input sorted on its attribute and
/// merge in one pass. Whether the sorts (or ordered index sweeps) beneath
/// are worth it against a hash join is the cost model's call.
pub struct MergeJoinImpl;

impl<'e> ImplRule<M<'e>> for MergeJoinImpl {
    fn name(&self) -> &'static str {
        crate::config::rule_names::MERGE_JOIN
    }
    fn consumes(&self) -> &'static [&'static str] {
        &["Join"]
    }
    fn implementations(
        &self,
        model: &M<'e>,
        memo: &Memo<M<'e>>,
        expr: &Expr<M<'e>>,
        required: &PhysProps,
        out: &mut Vec<Candidate<M<'e>>>,
    ) {
        let LogicalOp::Join { pred } = expr.op else {
            return;
        };
        let p = model.env.preds.pred(pred);
        // First equality term must compare two attributes.
        let Some(eq) = p.terms.iter().find(|t| t.op == CmpOp::Eq) else {
            return;
        };
        let (Operand::Attr { var: lv, field: lf }, Operand::Attr { var: rv, field: rf }) =
            (&eq.left, &eq.right)
        else {
            return;
        };
        let (lg, rg) = (expr.children[0], expr.children[1]);
        let (lp, rp) = (memo.props(lg), memo.props(rg));
        // Assign each attribute to the side holding its variable.
        let (lkey, rkey) = if lp.vars.contains(*lv) && rp.vars.contains(*rv) {
            ((*lv, *lf), (*rv, *rf))
        } else if lp.vars.contains(*rv) && rp.vars.contains(*lv) {
            ((*rv, *rf), (*lv, *lf))
        } else {
            return;
        };
        let (l_req, r_req) = join_sides(model, memo, expr, required, pred);
        let sorted = |in_memory, (var, field)| PhysProps {
            in_memory,
            order: Some(oodb_algebra::SortSpec { var, field }),
        };
        let (l_props, r_props) = (sorted(l_req, lkey), sorted(r_req, rkey));
        out.push(Candidate {
            op: PhysicalOp::MergeJoin { pred },
            inputs: Inputs::two((lg, l_props), (rg, r_props)),
            // Output inherits the left (outer) order on the join key.
            delivers: PhysProps {
                in_memory: l_req.union(r_req),
                order: l_props.order,
            },
        });
    }
}

/// `Mat` → warm-start assembly (the paper's Lesson 7 suggestion, disabled
/// in the default [`crate::OptimizerConfig`]): "the ability to scan
/// a scannable object into main memory before the normal complex object
/// assembly operation commences." One sequential sweep of the component's
/// collection replaces per-reference faults — a win when references far
/// outnumber the collection's pages.
pub struct WarmAssemblyImpl;

impl<'e> ImplRule<M<'e>> for WarmAssemblyImpl {
    fn name(&self) -> &'static str {
        crate::config::rule_names::WARM_ASSEMBLY
    }
    fn consumes(&self) -> &'static [&'static str] {
        &["Mat"]
    }
    fn implementations(
        &self,
        model: &M<'e>,
        memo: &Memo<M<'e>>,
        expr: &Expr<M<'e>>,
        required: &PhysProps,
        out: &mut Vec<Candidate<M<'e>>>,
    ) {
        let LogicalOp::Mat { out: target } = expr.op else {
            return;
        };
        if model.var_domain(target).is_none() {
            return; // nothing scannable (the paper's Plant)
        }
        let Some(input) = model.mat_input(target, required.in_memory) else {
            return;
        };
        let op = PhysicalOp::WarmAssembly { target };
        out.push(unary(
            op,
            memo,
            expr,
            required,
            input,
            VarSet::single(target),
        ));
    }
}

/// `Unnest` → Alg-Unnest.
pub struct AlgUnnestImpl;

impl<'e> ImplRule<M<'e>> for AlgUnnestImpl {
    fn name(&self) -> &'static str {
        crate::config::rule_names::ALG_UNNEST
    }
    fn consumes(&self) -> &'static [&'static str] {
        &["Unnest"]
    }
    fn implementations(
        &self,
        model: &M<'e>,
        memo: &Memo<M<'e>>,
        expr: &Expr<M<'e>>,
        required: &PhysProps,
        out: &mut Vec<Candidate<M<'e>>>,
    ) {
        let LogicalOp::Unnest { out: unnested } = expr.op else {
            return;
        };
        let VarOrigin::Unnest { src, .. } = model.env.scopes.var(unnested).origin else {
            return;
        };
        let input = required.in_memory.remove(unnested).insert(src);
        let op = PhysicalOp::AlgUnnest { out: unnested };
        out.push(unary(op, memo, expr, required, input, VarSet::EMPTY));
    }
}

/// `Project` → Alg-Project: "requires that its inputs deliver assembled
/// ... objects present in memory" — the requirement that drives Query 3's
/// goal-directed search.
pub struct AlgProjectImpl;

impl<'e> ImplRule<M<'e>> for AlgProjectImpl {
    fn name(&self) -> &'static str {
        crate::config::rule_names::ALG_PROJECT
    }
    fn consumes(&self) -> &'static [&'static str] {
        &["Project"]
    }
    fn implementations(
        &self,
        model: &M<'e>,
        memo: &Memo<M<'e>>,
        expr: &Expr<M<'e>>,
        required: &PhysProps,
        out: &mut Vec<Candidate<M<'e>>>,
    ) {
        let LogicalOp::Project { items } = &expr.op else {
            return;
        };
        let input = required.in_memory.union(model.items_mem_vars(items));
        let op = PhysicalOp::AlgProject {
            items: items.clone(),
        };
        out.push(unary(op, memo, expr, required, input, VarSet::EMPTY));
    }
}

/// `Get` → full *ordered* index scan (sort-order extension): when the
/// goal requires tuples ordered by an indexed attribute (directly or
/// through a path covered by a path index), sweeping the whole index in
/// key order delivers the order without a sort — the classic "interesting
/// order" alternative. The predicate is the empty (true) conjunction,
/// marking a full scan.
pub struct OrderedIndexScanImpl;

impl<'e> ImplRule<M<'e>> for OrderedIndexScanImpl {
    fn name(&self) -> &'static str {
        crate::config::rule_names::ORDERED_INDEX_SCAN
    }
    fn consumes(&self) -> &'static [&'static str] {
        &["Get"]
    }
    fn implementations(
        &self,
        model: &M<'e>,
        _memo: &Memo<M<'e>>,
        expr: &Expr<M<'e>>,
        required: &PhysProps,
        out: &mut Vec<Candidate<M<'e>>>,
    ) {
        let LogicalOp::Get { coll, var } = expr.op else {
            return;
        };
        let Some(key) = required.order else {
            return;
        };
        // The ordering attribute must be reachable from this scan's
        // variable through an index on this collection.
        let Some((icoll, base, links)) = model.index_path_of(key.var) else {
            return;
        };
        if icoll != coll || base != var {
            return;
        }
        let Some((index, _)) = model.env.catalog.find_index(coll, &links, key.field) else {
            return;
        };
        let pred = model.env.preds.intern(oodb_algebra::Pred::default());
        out.push(Candidate {
            op: PhysicalOp::IndexScan { index, var, pred },
            inputs: Inputs::none(),
            delivers: PhysProps {
                in_memory: VarSet::single(var),
                order: Some(key),
            },
        });
    }
}

/// Set operations → hash-based matching on object identity.
pub struct HashSetOpImpl;

impl<'e> ImplRule<M<'e>> for HashSetOpImpl {
    fn name(&self) -> &'static str {
        crate::config::rule_names::HASH_SET_OP
    }
    fn consumes(&self) -> &'static [&'static str] {
        &["SetOp"]
    }
    fn implementations(
        &self,
        _model: &M<'e>,
        _memo: &Memo<M<'e>>,
        expr: &Expr<M<'e>>,
        required: &PhysProps,
        out: &mut Vec<Candidate<M<'e>>>,
    ) {
        let LogicalOp::SetOp { kind } = expr.op else {
            return;
        };
        let (lg, rg) = (expr.children[0], expr.children[1]);
        out.push(Candidate {
            op: PhysicalOp::HashSetOp { kind },
            inputs: Inputs::two((lg, *required), (rg, *required)),
            delivers: *required,
        });
    }
}
