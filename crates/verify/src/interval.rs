//! The interval cardinality audit: sound `[lo, hi]` row-count intervals
//! propagated bottom-up, with every estimate checked against its own.

use crate::{checks, Cx};
use oodb_algebra::{CardInterval, PhysicalOp, PhysicalPlan, PredId, VarId};

impl Cx<'_> {
    /// Bottom-up interval propagation over a physical plan, checking each
    /// node's *estimate* against its interval. Returns the root interval.
    pub(crate) fn walk_interval(&mut self, plan: &PhysicalPlan) -> CardInterval {
        let kids = self.walk_kids(&plan.children, Self::walk_interval);
        let iv = self.phys_interval(plan, &kids);
        let out = plan.est.out_card;
        // Non-finite/negative estimates are COST_NON_FINITE/CARD_NEGATIVE.
        if out.is_finite() && out >= 0.0 && !iv.contains(out) {
            self.emit(
                checks::CARD_INTERVAL,
                plan.op.name(),
                format!("out_card within {iv}"),
                format!("{out}"),
            );
        }
        iv
    }

    /// The `[lo, hi]` row-count interval of one physical operator given
    /// its children's intervals. Sound w.r.t. executor semantics: scans
    /// are pinned to catalog cardinality, predicates drop the lower bound,
    /// count-preserving operators (assembly, sort, pointer join in its
    /// well-formed single-reference-equality shape) pass intervals
    /// through, and a reference equi-join against a side that is provably
    /// distinct in the target variable emits at most one row per row of
    /// the other side (containment).
    pub(crate) fn phys_interval(&self, plan: &PhysicalPlan, kids: &[CardInterval]) -> CardInterval {
        let kid = |i: usize| kids.get(i).copied().unwrap_or(CardInterval::UNBOUNDED);
        match &plan.op {
            PhysicalOp::FileScan { .. } | PhysicalOp::IndexScan { .. } => {
                let Some(n) = self.scan_card(&plan.op) else {
                    return CardInterval::UNBOUNDED;
                };
                match plan.op {
                    // Empty predicate = full ordered sweep: every member.
                    PhysicalOp::IndexScan { pred, .. } if !self.pred_empty(pred) => {
                        CardInterval::at_most(n)
                    }
                    _ => CardInterval::exact(n),
                }
            }
            PhysicalOp::Filter { pred } => {
                if self.pred_empty(*pred) {
                    kid(0)
                } else {
                    kid(0).relax_lo()
                }
            }
            PhysicalOp::PointerJoin { pred } => {
                if self.single_ref_eq(*pred) {
                    kid(0)
                } else {
                    kid(0).relax_lo()
                }
            }
            PhysicalOp::Assembly { .. }
            | PhysicalOp::WarmAssembly { .. }
            | PhysicalOp::Sort { .. }
            | PhysicalOp::AlgProject { .. } => kid(0),
            PhysicalOp::AlgUnnest { .. } => CardInterval::UNBOUNDED,
            PhysicalOp::HybridHashJoin { pred } | PhysicalOp::MergeJoin { pred } => {
                self.join_interval(*pred, &plan.children, kid(0), kid(1))
            }
            PhysicalOp::HashSetOp { kind } => match kind {
                oodb_algebra::SetOpKind::Union => kid(0).sum(kid(1)).relax_lo(),
                oodb_algebra::SetOpKind::Intersect => {
                    CardInterval::at_most(kid(0).hi.min(kid(1).hi))
                }
                oodb_algebra::SetOpKind::Difference => CardInterval::at_most(kid(0).hi),
            },
        }
    }

    /// Join interval: cross product, lower bound dropped when a predicate
    /// can eliminate rows, upper bound tightened by reference-equality
    /// containment when the side binding the target variable is provably
    /// distinct in it (each row of the other side then matches at most one
    /// row).
    fn join_interval(
        &self,
        pred: PredId,
        children: &[PhysicalPlan],
        l: CardInterval,
        r: CardInterval,
    ) -> CardInterval {
        let mut iv = if self.pred_empty(pred) {
            l.cross(r)
        } else {
            l.cross(r).relax_lo()
        };
        if !self.pred_ok(pred) || children.len() != 2 {
            return iv;
        }
        for t in &self.env.preds.pred(pred).terms {
            if let Some((_, tv)) = t.as_ref_eq() {
                if phys_binds(&children[0], tv) {
                    if phys_distinct_in(&children[0], tv) {
                        iv = iv.cap(r.hi);
                    }
                } else if phys_binds(&children[1], tv) && phys_distinct_in(&children[1], tv) {
                    iv = iv.cap(l.hi);
                }
            }
        }
        iv
    }

    /// True when the predicate is a single reference equality — the shape
    /// in which a pointer join is count-preserving.
    fn single_ref_eq(&self, p: PredId) -> bool {
        self.pred_ok(p) && {
            let terms = &self.env.preds.pred(p).terms;
            terms.len() == 1 && terms[0].as_ref_eq().is_some()
        }
    }
}

/// Whether a physical subtree binds `v` in its output tuples.
fn phys_binds(plan: &PhysicalPlan, v: VarId) -> bool {
    let here = match &plan.op {
        PhysicalOp::FileScan { var, .. } | PhysicalOp::IndexScan { var, .. } => *var == v,
        PhysicalOp::Assembly { targets, .. } => targets.contains(&v),
        PhysicalOp::WarmAssembly { target } => *target == v,
        PhysicalOp::AlgUnnest { out } => *out == v,
        _ => false,
    };
    here || plan.children.iter().any(|c| phys_binds(c, v))
}

/// Whether every output row of a physical subtree carries a *distinct*
/// object for `v`. Conservative: `false` whenever distinctness cannot be
/// proven (joins, unnests, unions, variables the operator introduces by
/// dereference).
fn phys_distinct_in(plan: &PhysicalPlan, v: VarId) -> bool {
    let kid0 = |p: &PhysicalPlan| p.children.first().is_some_and(|c| phys_distinct_in(c, v));
    match &plan.op {
        PhysicalOp::FileScan { var, .. } | PhysicalOp::IndexScan { var, .. } => *var == v,
        PhysicalOp::Filter { .. }
        | PhysicalOp::Sort { .. }
        | PhysicalOp::AlgProject { .. }
        | PhysicalOp::PointerJoin { .. } => kid0(plan),
        PhysicalOp::Assembly { targets, .. } => !targets.contains(&v) && kid0(plan),
        PhysicalOp::WarmAssembly { target } => *target != v && kid0(plan),
        PhysicalOp::AlgUnnest { .. }
        | PhysicalOp::HybridHashJoin { .. }
        | PhysicalOp::MergeJoin { .. } => false,
        PhysicalOp::HashSetOp { kind } => match kind {
            oodb_algebra::SetOpKind::Union => false,
            oodb_algebra::SetOpKind::Intersect | oodb_algebra::SetOpKind::Difference => kid0(plan),
        },
    }
}
