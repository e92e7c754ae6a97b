//! Cost/estimate sanity: finite, non-negative per-operator estimates,
//! monotone cumulative cost, and cardinalities within the bounds operator
//! semantics allow.

use crate::{checks, Cx};
use oodb_algebra::{PhysicalOp, PhysicalPlan};

/// Relative slack allowed on cardinality bounds (estimates are `f64`
/// chains; exact comparisons would trip on rounding).
const CARD_SLACK: f64 = 1e-6;

impl Cx<'_> {
    /// Walks the annotated plan, returning `(cumulative_s, out_card)`.
    pub(crate) fn walk_cost(&mut self, plan: &PhysicalPlan) -> (f64, f64) {
        let op = plan.op.name();
        let (kid_totals, kid_cards): (Vec<f64>, Vec<f64>) = self
            .walk_kids(&plan.children, Self::walk_cost)
            .into_iter()
            .unzip();
        let est = plan.est;
        for (name, v) in [
            ("io_s", est.io_s),
            ("cpu_s", est.cpu_s),
            ("out_card", est.out_card),
        ] {
            if !v.is_finite() {
                self.emit(
                    checks::COST_NON_FINITE,
                    op,
                    format!("finite {name}"),
                    format!("{v}"),
                );
            }
        }
        if est.io_s < 0.0 || est.cpu_s < 0.0 {
            self.emit(
                checks::COST_NEGATIVE,
                op,
                "non-negative operator cost",
                format!("io {} s, cpu {} s", est.io_s, est.cpu_s),
            );
        }
        if est.out_card < 0.0 {
            self.emit(
                checks::CARD_NEGATIVE,
                op,
                "non-negative cardinality",
                format!("{}", est.out_card),
            );
        }
        let total = kid_totals.iter().sum::<f64>() + est.op_total_s();
        // NaN totals are already reported as COST_NON_FINITE, so a plain
        // ordered comparison is enough here.
        for (i, &t) in kid_totals.iter().enumerate() {
            if total < t {
                self.emit(
                    checks::COST_NON_MONOTONE,
                    op,
                    format!("cumulative cost >= input {i}'s {t} s"),
                    format!("{total} s"),
                );
            }
        }
        self.check_card_bound(plan, &kid_cards, op);
        (total, est.out_card)
    }

    /// Per-operator derivable cardinality bounds.
    fn check_card_bound(&mut self, plan: &PhysicalPlan, kids: &[f64], op: &str) {
        let out = plan.est.out_card;
        let kid = |i: usize| kids.get(i).copied().unwrap_or(0.0);
        let bound: Option<(f64, &str)> = match &plan.op {
            PhysicalOp::FileScan { .. } => self
                .scan_card(&plan.op)
                .map(|n| (n, "collection cardinality")),
            PhysicalOp::IndexScan { .. } => self
                .scan_card(&plan.op)
                .map(|n| (n, "indexed collection cardinality")),
            PhysicalOp::Filter { .. } | PhysicalOp::Sort { .. } => {
                Some((kid(0), "input cardinality"))
            }
            PhysicalOp::Assembly { .. }
            | PhysicalOp::WarmAssembly { .. }
            | PhysicalOp::AlgProject { .. }
            | PhysicalOp::PointerJoin { .. } => Some((kid(0), "input cardinality")),
            PhysicalOp::HybridHashJoin { .. } | PhysicalOp::MergeJoin { .. } => {
                Some((kid(0) * kid(1), "cross-product of the inputs"))
            }
            PhysicalOp::HashSetOp { kind } => Some(match kind {
                oodb_algebra::SetOpKind::Union => (kid(0) + kid(1), "sum of the inputs"),
                oodb_algebra::SetOpKind::Intersect => {
                    (kid(0).min(kid(1)), "smaller input cardinality")
                }
                oodb_algebra::SetOpKind::Difference => (kid(0), "left input cardinality"),
            }),
            // Unnest fans out by set size; no bound derivable here.
            PhysicalOp::AlgUnnest { .. } => None,
        };
        if let Some((b, what)) = bound {
            if out > b * (1.0 + CARD_SLACK) + CARD_SLACK {
                self.emit(
                    checks::CARD_BOUND,
                    op,
                    format!("out_card <= {what} ({b})"),
                    format!("{out}"),
                );
            }
        }
    }
}
