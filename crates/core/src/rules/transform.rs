//! Logical transformation rules.
//!
//! "Since our logical algebra is based on the relational algebra, our
//! transformation rules include known relational transformations plus some
//! new ones pertaining to the materialize operator. These transformations
//! move materialize operators above and beneath ('through') selection,
//! join, and set operators, provided none of the other operators depends on
//! a scope defined by materialize."
//!
//! Multi-level patterns (anything that needs to see below the immediate
//! operator) match by enumerating the child group's expressions in the
//! memo; the engine re-fires such rules when child groups grow, so
//! exploration is exhaustive.

//! ## Rule signatures
//!
//! Every rule declares a [`RuleSignature`]: the operator shapes it
//! consumes and produces, and whether it reads its input groups. The
//! engine fires a rule only on the roots it consumes, re-fires only the
//! rules that read their inputs (all but `SelectSplit`, `MatToJoin` and
//! `JoinCommute`), and feeds the shapes to the rule-graph termination
//! analysis ([`volcano::rulegraph`]). All twelve rules are *non-generative*: the
//! predicates they intern (split conjuncts, merged join predicates, the
//! Mat→Join reference equality) are drawn from the finite closure of the
//! query's own terms — subsets and unions of the original conjuncts, or
//! one canonical equality per materialized variable — so the memo's
//! duplicate elimination bounds every rewrite cycle they can form.

use crate::model::{Derivation, OodbModel};
use oodb_algebra::{LogicalOp, Operand, Pred, VarId, VarOrigin, VarSet};
use volcano::{Expr, Memo, RuleSignature, TransformRule};

type M<'e> = OodbModel<'e>;
type Rw = volcano::Rewrites<LogicalOp>;

/// The body [`SelectMatSwap`] and [`SelectUnnestSwap`] share: commutes
/// `Select` with the scope operator `scope` recognises (returning the
/// variable it binds) in both directions — down when the predicate ignores
/// that variable, up always.
fn select_scope_swap(
    model: &M<'_>,
    memo: &Memo<M<'_>>,
    expr: &Expr<M<'_>>,
    scope: fn(&LogicalOp) -> Option<VarId>,
    out: &mut Rw,
) {
    let used = match &expr.op {
        LogicalOp::Select { pred } => Some(model.pred_vars(*pred)),
        o if scope(o).is_some() => None,
        _ => return,
    };
    // What moves above `expr`: below a selection, a scope operator whose
    // variable it ignores; below a scope operator, any selection.
    let moves_up = |child: &LogicalOp| match used {
        Some(used) => scope(child).is_some_and(|v| !used.contains(v)),
        None => matches!(child, LogicalOp::Select { .. }),
    };
    for &ce in memo.group_exprs(expr.children[0]) {
        let child = memo.expr(ce);
        if moves_up(&child.op) {
            let below = out.group(child.children[0]);
            let moved = out.op(expr.op.clone(), [below]);
            let root = out.op(child.op.clone(), [moved]);
            out.emit(root);
        }
    }
}

/// `U(Join(L, R))` → `Join(U(L), R)` and `Join(L, U(R))` for the unary
/// operator `U` at `expr` and every join beneath it, onto each side whose
/// scope binds all of `needs`.
fn push_into_join_sides(memo: &Memo<M<'_>>, expr: &Expr<M<'_>>, needs: VarSet, out: &mut Rw) {
    for &ce in memo.group_exprs(expr.children[0]) {
        let join = memo.expr(ce);
        if !matches!(join.op, LogicalOp::Join { .. }) {
            continue;
        }
        for side in 0..2 {
            if needs.is_subset(memo.props(join.children[side]).vars) {
                let mut inputs = join.children.map(|g| out.group(g));
                inputs[side] = out.op(expr.op.clone(), [inputs[side]]);
                let root = out.op(join.op.clone(), inputs);
                out.emit(root);
            }
        }
    }
}

/// `Join(U(X), R)` → `U(Join(X, R))`, and the same from the right, for the
/// join at `expr` and every unary operator `U` beneath it that `lift`
/// accepts.
fn pull_out_of_join_sides(
    memo: &Memo<M<'_>>,
    expr: &Expr<M<'_>>,
    lift: impl Fn(&LogicalOp) -> bool,
    out: &mut Rw,
) {
    for side in 0..2 {
        for &ce in memo.group_exprs(expr.children[side]) {
            let child = memo.expr(ce);
            if lift(&child.op) {
                let mut inputs = expr.children;
                inputs[side] = child.children[0];
                let inputs = inputs.map(|g| out.group(g));
                let join = out.op(expr.op.clone(), inputs);
                let root = out.op(child.op.clone(), [join]);
                out.emit(root);
            }
        }
    }
}

/// `Select[t1 ∧ … ∧ tn](X)` → `Select[ti](Select[rest](X))` for each `i`.
/// Exposes individual conjuncts to pushdown and index collapsing (needed
/// for Query 4, where `t.time == 100` must reach the Tasks index while
/// `e.name == "Fred"` stays above the materialize).
pub struct SelectSplit;

impl<'e> TransformRule<M<'e>> for SelectSplit {
    fn name(&self) -> &'static str {
        crate::config::rule_names::SELECT_SPLIT
    }
    fn signature(&self) -> RuleSignature {
        // Split predicates are subsets of the original conjuncts.
        RuleSignature {
            consumes: &["Select"],
            produces: &["Select"],
            generative: false,
            reads_inputs: false,
        }
    }
    fn apply(&self, model: &M<'e>, _memo: &Memo<M<'e>>, expr: &Expr<M<'e>>, out: &mut Rw) {
        let LogicalOp::Select { pred } = expr.op else {
            return;
        };
        let terms = &model.env.preds.pred(pred).terms;
        if terms.len() < 2 {
            return;
        }
        for i in 0..terms.len() {
            let one = model.derived_pred(Derivation::Conjunct(pred, i), || {
                Pred::term(terms[i].clone())
            });
            let rest = model.derived_pred(Derivation::WithoutConjunct(pred, i), || {
                let mut rest = terms.clone();
                rest.remove(i);
                Pred { terms: rest }
            });
            let input = out.group(expr.children[0]);
            let below = out.op(LogicalOp::Select { pred: rest }, [input]);
            let root = out.op(LogicalOp::Select { pred: one }, [below]);
            out.emit(root);
        }
    }
}

/// Commutes `Select` with `Mat` in both directions: push down when the
/// predicate does not use the materialized component; pull up always.
pub struct SelectMatSwap;

impl<'e> TransformRule<M<'e>> for SelectMatSwap {
    fn name(&self) -> &'static str {
        crate::config::rule_names::SELECT_MAT_SWAP
    }
    fn signature(&self) -> RuleSignature {
        RuleSignature {
            consumes: &["Select", "Mat"],
            produces: &["Select", "Mat"],
            generative: false,
            reads_inputs: true,
        }
    }
    fn apply(&self, model: &M<'e>, memo: &Memo<M<'e>>, expr: &Expr<M<'e>>, out: &mut Rw) {
        let scope = |o: &LogicalOp| match o {
            LogicalOp::Mat { out } => Some(*out),
            _ => None,
        };
        select_scope_swap(model, memo, expr, scope, out)
    }
}

/// Commutes `Select` with `Unnest` in both directions (push only when the
/// predicate ignores the unnested references).
pub struct SelectUnnestSwap;

impl<'e> TransformRule<M<'e>> for SelectUnnestSwap {
    fn name(&self) -> &'static str {
        crate::config::rule_names::SELECT_UNNEST_SWAP
    }
    fn signature(&self) -> RuleSignature {
        RuleSignature {
            consumes: &["Select", "Unnest"],
            produces: &["Select", "Unnest"],
            generative: false,
            reads_inputs: true,
        }
    }
    fn apply(&self, model: &M<'e>, memo: &Memo<M<'e>>, expr: &Expr<M<'e>>, out: &mut Rw) {
        let scope = |o: &LogicalOp| match o {
            LogicalOp::Unnest { out } => Some(*out),
            _ => None,
        };
        select_scope_swap(model, memo, expr, scope, out)
    }
}

/// Pushes `Select` into the join input that covers its variables, and
/// pulls selections back above joins (exhaustive pairing).
pub struct SelectJoinPush;

impl<'e> TransformRule<M<'e>> for SelectJoinPush {
    fn name(&self) -> &'static str {
        crate::config::rule_names::SELECT_JOIN_PUSH
    }
    fn signature(&self) -> RuleSignature {
        RuleSignature {
            consumes: &["Select", "Join"],
            produces: &["Select", "Join"],
            generative: false,
            reads_inputs: true,
        }
    }
    fn apply(&self, model: &M<'e>, memo: &Memo<M<'e>>, expr: &Expr<M<'e>>, out: &mut Rw) {
        match expr.op {
            LogicalOp::Select { pred } => {
                push_into_join_sides(memo, expr, model.pred_vars(pred), out)
            }
            LogicalOp::Join { .. } => {
                let select = |o: &LogicalOp| matches!(o, LogicalOp::Select { .. });
                pull_out_of_join_sides(memo, expr, select, out)
            }
            _ => {}
        }
    }
}

/// Merges a selection that spans both join inputs into the join predicate
/// — `Select[p](Join[jp](L, R)) → Join[jp ∧ p](L, R)` — so conditions the
/// simplifier left above a join (e.g. the OID equality of a two-collection
/// `FROM` clause) become hash-join keys.
pub struct SelectIntoJoin;

impl<'e> TransformRule<M<'e>> for SelectIntoJoin {
    fn name(&self) -> &'static str {
        crate::config::rule_names::SELECT_INTO_JOIN
    }
    fn signature(&self) -> RuleSignature {
        // The merged predicate is a union of existing term sets — still
        // inside the finite closure of the query's conjuncts.
        RuleSignature {
            consumes: &["Select"],
            produces: &["Join"],
            generative: false,
            reads_inputs: true,
        }
    }
    fn apply(&self, model: &M<'e>, memo: &Memo<M<'e>>, expr: &Expr<M<'e>>, out: &mut Rw) {
        let LogicalOp::Select { pred } = expr.op else {
            return;
        };
        let used = model.pred_vars(pred);
        for &ce in memo.group_exprs(expr.children[0]) {
            let child = memo.expr(ce);
            let LogicalOp::Join { pred: jp } = child.op else {
                continue;
            };
            let (l, r) = (child.children[0], child.children[1]);
            let (lv, rv) = (memo.props(l).vars, memo.props(r).vars);
            // Only when the selection genuinely spans both sides (one-sided
            // selections are SelectJoinPush's business). Equality terms
            // lead so the merged predicate stays hash-joinable.
            if used.is_subset(lv) || used.is_subset(rv) {
                continue;
            }
            let merged = model.derived_pred(Derivation::Merged(jp, pred), || {
                let mut terms = model.env.preds.pred(jp).terms.clone();
                terms.extend(model.env.preds.pred(pred).terms.iter().cloned());
                terms.sort_by_key(|t| t.op != oodb_algebra::CmpOp::Eq);
                Pred { terms }
            });
            let inputs = child.children.map(|g| out.group(g));
            let root = out.op(LogicalOp::Join { pred: merged }, inputs);
            out.emit(root);
        }
    }
}

/// **Mat→Join** — the paper's pivotal rule: "if the scope introduced by a
/// materialize operator is actually a scannable object (a set object,
/// file, etc.), the materialize operator can be transformed into a join."
/// The scanned collection is the reference field's declared domain, or the
/// target type's extent. Components without either (the paper's `Plant`)
/// cannot be joined and must be assembled.
pub struct MatToJoin;

impl<'e> TransformRule<M<'e>> for MatToJoin {
    fn name(&self) -> &'static str {
        crate::config::rule_names::MAT_TO_JOIN
    }
    fn signature(&self) -> RuleSignature {
        // Interns one canonical reference equality per materialized
        // variable: finitely many, so not generative.
        RuleSignature {
            consumes: &["Mat"],
            produces: &["Join", "Get"],
            generative: false,
            reads_inputs: false,
        }
    }
    fn apply(&self, model: &M<'e>, _memo: &Memo<M<'e>>, expr: &Expr<M<'e>>, out: &mut Rw) {
        let LogicalOp::Mat { out: mat_out } = expr.op else {
            return;
        };
        let Some(coll) = model.var_domain(mat_out) else {
            return;
        };
        let VarOrigin::Mat { src, field } = model.env.scopes.var(mat_out).origin else {
            return;
        };
        let pred = model.derived_pred(Derivation::MatJoin(mat_out), || {
            let ref_operand = match field {
                Some(f) => Operand::RefField { var: src, field: f },
                None => Operand::VarRef(src),
            };
            Pred::term(oodb_algebra::Term {
                left: ref_operand,
                op: oodb_algebra::CmpOp::Eq,
                right: Operand::VarOid(mat_out),
            })
        });
        let input = out.group(expr.children[0]);
        let scan = out.op(LogicalOp::Get { coll, var: mat_out }, []);
        let root = out.op(LogicalOp::Join { pred }, [input, scan]);
        out.emit(root);
    }
}

/// Join commutativity. "Join commutativity permits exploring query plan
/// alternatives that are usually ignored in object query optimization,
/// e.g., traversing single-directional inter-object links (pointers) in
/// their opposite (not pre-computed) direction" — because hybrid hash join
/// is directional (hash table on the left/referenced side), this rule is
/// what makes the joined form of a Mat efficiently implementable at all.
pub struct JoinCommute;

impl<'e> TransformRule<M<'e>> for JoinCommute {
    fn name(&self) -> &'static str {
        crate::config::rule_names::JOIN_COMMUTE
    }
    fn signature(&self) -> RuleSignature {
        RuleSignature {
            consumes: &["Join"],
            produces: &["Join"],
            generative: false,
            reads_inputs: false,
        }
    }
    fn apply(&self, _model: &M<'e>, _memo: &Memo<M<'e>>, expr: &Expr<M<'e>>, out: &mut Rw) {
        let LogicalOp::Join { pred } = expr.op else {
            return;
        };
        let [r, l] = [1, 0].map(|side| out.group(expr.children[side]));
        let root = out.op(LogicalOp::Join { pred }, [r, l]);
        out.emit(root);
    }
}

/// Join associativity: `(A ⋈ B) ⋈ C → A ⋈ (B ⋈ C)` when the outer
/// predicate only references B and C. With commutativity this reaches all
/// join orders. "Join associativity is closely related to the
/// commutativity of multiple materialize operators."
pub struct JoinAssoc;

impl<'e> TransformRule<M<'e>> for JoinAssoc {
    fn name(&self) -> &'static str {
        crate::config::rule_names::JOIN_ASSOC
    }
    fn signature(&self) -> RuleSignature {
        RuleSignature {
            consumes: &["Join"],
            produces: &["Join"],
            generative: false,
            reads_inputs: true,
        }
    }
    fn apply(&self, model: &M<'e>, memo: &Memo<M<'e>>, expr: &Expr<M<'e>>, out: &mut Rw) {
        let LogicalOp::Join { pred: p2 } = expr.op else {
            return;
        };
        let c = expr.children[1];
        for &le in memo.group_exprs(expr.children[0]) {
            let lexpr = memo.expr(le);
            if let LogicalOp::Join { pred: p1 } = lexpr.op {
                let (a, b) = (lexpr.children[0], lexpr.children[1]);
                let p2_vars = model.pred_vars(p2);
                if p2_vars.is_subset(memo.props(b).vars.union(memo.props(c).vars)) {
                    let [a, b, c] = [a, b, c].map(|g| out.group(g));
                    let bc = out.op(LogicalOp::Join { pred: p2 }, [b, c]);
                    let root = out.op(LogicalOp::Join { pred: p1 }, [a, bc]);
                    out.emit(root);
                }
            }
        }
    }
}

/// Commutes adjacent `Mat` operators: "the materialize operators can trade
/// their positions in the query expression, with the condition that
/// 'country' must be materialized before 'president'" — i.e. they commute
/// unless one's source is the other's output.
pub struct MatMatSwap;

impl<'e> TransformRule<M<'e>> for MatMatSwap {
    fn name(&self) -> &'static str {
        crate::config::rule_names::MAT_MAT_SWAP
    }
    fn signature(&self) -> RuleSignature {
        RuleSignature {
            consumes: &["Mat"],
            produces: &["Mat"],
            generative: false,
            reads_inputs: true,
        }
    }
    fn apply(&self, model: &M<'e>, memo: &Memo<M<'e>>, expr: &Expr<M<'e>>, out: &mut Rw) {
        let LogicalOp::Mat { out: o1 } = expr.op else {
            return;
        };
        let VarOrigin::Mat { src: s1, .. } = model.env.scopes.var(o1).origin else {
            return;
        };
        for &ce in memo.group_exprs(expr.children[0]) {
            let child = memo.expr(ce);
            if let LogicalOp::Mat { out: o2 } = child.op {
                // o1 must not depend on o2, and o1's source must already be
                // in scope beneath o2.
                if s1 != o2 && memo.props(child.children[0]).vars.contains(s1) {
                    let below = out.group(child.children[0]);
                    let inner = out.op(LogicalOp::Mat { out: o1 }, [below]);
                    let root = out.op(LogicalOp::Mat { out: o2 }, [inner]);
                    out.emit(root);
                }
            }
        }
    }
}

/// Moves selections through set operators: a predicate distributes over
/// union and can be applied to the left input of intersection/difference
/// (and to the right of intersection). Part of the paper's "transformations
/// \[that\] move materialize operators above and beneath ('through')
/// selection, join, and set operators" family.
pub struct SelectSetOpPush;

impl<'e> TransformRule<M<'e>> for SelectSetOpPush {
    fn name(&self) -> &'static str {
        crate::config::rule_names::SELECT_SETOP_PUSH
    }
    fn signature(&self) -> RuleSignature {
        RuleSignature {
            consumes: &["Select"],
            produces: &["SetOp", "Select"],
            generative: false,
            reads_inputs: true,
        }
    }
    fn apply(&self, _model: &M<'e>, memo: &Memo<M<'e>>, expr: &Expr<M<'e>>, out: &mut Rw) {
        let LogicalOp::Select { pred } = expr.op else {
            return;
        };
        for &ce in memo.group_exprs(expr.children[0]) {
            let child = memo.expr(ce);
            let LogicalOp::SetOp { kind } = child.op else {
                continue;
            };
            // Which inputs get the selection, as one rewrite each.
            let sides: &[[bool; 2]] = match kind {
                // σ(A ∪ B) = σA ∪ σB
                oodb_algebra::SetOpKind::Union => &[[true, true]],
                // σ(A ∩ B) = σA ∩ B = A ∩ σB — push to the (likely
                // smaller after filtering) left; exploration plus
                // commutativity-by-hand covers the right.
                oodb_algebra::SetOpKind::Intersect => &[[true, false], [false, true]],
                // σ(A \ B) = σA \ B  (NOT distributable into B).
                oodb_algebra::SetOpKind::Difference => &[[true, false]],
            };
            for &[left, right] in sides {
                let mut inputs = child.children.map(|g| out.group(g));
                for (input, selected) in inputs.iter_mut().zip([left, right]) {
                    if selected {
                        *input = out.op(LogicalOp::Select { pred }, [*input]);
                    }
                }
                let root = out.op(LogicalOp::SetOp { kind }, inputs);
                out.emit(root);
            }
        }
    }
}

/// Moves a `Mat` through a set operator: materializing a component
/// commutes with identity-based union/intersection/difference because the
/// Mat neither filters nor changes identity.
pub struct MatSetOpPush;

impl<'e> TransformRule<M<'e>> for MatSetOpPush {
    fn name(&self) -> &'static str {
        crate::config::rule_names::MAT_SETOP_PUSH
    }
    fn signature(&self) -> RuleSignature {
        RuleSignature {
            consumes: &["Mat"],
            produces: &["SetOp", "Mat"],
            generative: false,
            reads_inputs: true,
        }
    }
    fn apply(&self, _model: &M<'e>, memo: &Memo<M<'e>>, expr: &Expr<M<'e>>, out: &mut Rw) {
        let LogicalOp::Mat { out: o } = expr.op else {
            return;
        };
        for &ce in memo.group_exprs(expr.children[0]) {
            let child = memo.expr(ce);
            let LogicalOp::SetOp { kind } = child.op else {
                continue;
            };
            // Mat(A op B) = Mat(A) op Mat(B): set matching is on identity,
            // which Mat preserves.
            let inputs = child.children.map(|g| {
                let input = out.group(g);
                out.op(LogicalOp::Mat { out: o }, [input])
            });
            let root = out.op(LogicalOp::SetOp { kind }, inputs);
            out.emit(root);
        }
    }
}

/// Pushes a `Mat` into the join input holding its source variable, and
/// pulls it back above the join when no other operator depends on it.
pub struct MatJoinPush;

impl<'e> TransformRule<M<'e>> for MatJoinPush {
    fn name(&self) -> &'static str {
        crate::config::rule_names::MAT_JOIN_PUSH
    }
    fn signature(&self) -> RuleSignature {
        RuleSignature {
            consumes: &["Mat", "Join"],
            produces: &["Join", "Mat"],
            generative: false,
            reads_inputs: true,
        }
    }
    fn apply(&self, model: &M<'e>, memo: &Memo<M<'e>>, expr: &Expr<M<'e>>, out: &mut Rw) {
        match expr.op {
            LogicalOp::Mat { out: o } => {
                if let VarOrigin::Mat { src, .. } = model.env.scopes.var(o).origin {
                    push_into_join_sides(memo, expr, VarSet::single(src), out)
                }
            }
            LogicalOp::Join { pred } => {
                // Pull only a Mat the join predicate ignores.
                let used = model.pred_vars(pred);
                let mat =
                    |o: &LogicalOp| matches!(o, LogicalOp::Mat { out: v } if !used.contains(*v));
                pull_out_of_join_sides(memo, expr, mat, out)
            }
            _ => {}
        }
    }
}
