//! The one estimate-vs-actual walk. A traced run's [`OpTrace`] mirrors its
//! [`PhysicalPlan`] except for children the executor never runs (a pointer
//! join's target scan); [`walk_actual`] pairs the two trees for the
//! service's interval-escape counter, the feedback ledger and the audit.

use crate::Cx;
use oodb_algebra::{CardInterval, PhysicalPlan, QueryEnv};
use oodb_telemetry::OpTrace;

/// Ceiling on reported drift ratios. A zero-row estimate against observed
/// rows is *maximal* drift, not infinity — the cap keeps every downstream
/// comparison and export finite.
pub const MAX_DRIFT: f64 = 1e12;

/// The error ratio between an estimated and an observed cardinality:
/// `max(est/actual, actual/est)`, clamped to `[1.0, MAX_DRIFT]` and
/// always finite.
///
/// Zero-row edge cases are part of the contract, not an afterthought:
/// an estimate of 0 (or a non-finite estimate) against observed rows is
/// maximal drift; 0 estimated and 0 observed is perfect agreement; both
/// sides are floored at one row so sub-row estimates (`1e-6` from the
/// cost model) cannot manufacture drift against an actual of 0 or 1.
pub fn drift_ratio(estimated: f64, actual: u64) -> f64 {
    if !estimated.is_finite() {
        return MAX_DRIFT;
    }
    if estimated <= 0.0 && actual > 0 {
        return MAX_DRIFT;
    }
    let e = estimated.max(1.0);
    let a = (actual as f64).max(1.0);
    (e / a).max(a / e).min(MAX_DRIFT)
}

/// One operator of a traced run, paired with its plan node.
#[derive(Debug)]
pub struct ActualNode<'a> {
    /// Operator path from the root: the child index taken at each level.
    pub path: Vec<usize>,
    /// The plan node: operator and estimate.
    pub plan: &'a PhysicalPlan,
    /// Its trace node: measured rows, time and I/O.
    pub trace: &'a OpTrace,
    /// The sound row-count interval given the children's *measured* rows;
    /// a child with no trace node counts as [`CardInterval::UNBOUNDED`].
    pub interval: CardInterval,
    /// [`drift_ratio`] of the estimated against the measured rows.
    pub drift: f64,
}

impl ActualNode<'_> {
    /// Whether the measured rows escape the interval: with a clean verify
    /// pass, the statistics are stale (or an operator miscounts).
    pub fn escapes(&self) -> bool {
        !self.interval.contains(self.trace.actual_rows as f64)
    }
}

/// Walks a plan and its trace once and returns every operator that ran,
/// inputs before parents, left to right: the root comes last.
pub fn walk_actual<'a>(
    env: &QueryEnv,
    plan: &'a PhysicalPlan,
    trace: &'a OpTrace,
) -> Vec<ActualNode<'a>> {
    let mut nodes = Vec::new();
    visit(&mut Cx::new(env), plan, trace, &mut nodes);
    nodes
}

fn visit<'a>(
    cx: &mut Cx<'_>,
    plan: &'a PhysicalPlan,
    trace: &'a OpTrace,
    nodes: &mut Vec<ActualNode<'a>>,
) {
    let mut kids = vec![CardInterval::UNBOUNDED; plan.children.len()];
    for (i, (p, t)) in plan.children.iter().zip(&trace.children).enumerate() {
        cx.path.push(i);
        visit(cx, p, t, nodes);
        cx.path.pop();
        // A parent is bounded by what an input measurably produced, not
        // by what it could have.
        kids[i] = CardInterval::exact(t.actual_rows as f64);
    }
    nodes.push(ActualNode {
        path: cx.path.clone(),
        plan,
        trace,
        interval: cx.phys_interval(plan, &kids),
        drift: drift_ratio(plan.est.out_card, trace.actual_rows),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::scan_filter_plan;
    use oodb_algebra::{PhysicalOp, PlanEst, QueryBuilder};
    use oodb_object::paper::paper_model;
    use oodb_object::Value;

    fn trace(rows: u64, children: Vec<OpTrace>) -> OpTrace {
        OpTrace {
            label: String::new(),
            actual_rows: rows,
            elapsed_ns: 0,
            buffer_hits: 0,
            buffer_misses: 0,
            sim_io_s: 0.0,
            spill_pages: 0,
            children,
        }
    }

    #[test]
    fn drift_ratio_zero_row_contract() {
        // 0 estimated, >0 actual: maximal drift, not NaN/inf.
        assert_eq!(drift_ratio(0.0, 5), MAX_DRIFT);
        assert_eq!(drift_ratio(-1.0, 5), MAX_DRIFT);
        assert_eq!(drift_ratio(f64::NAN, 0), MAX_DRIFT);
        assert_eq!(drift_ratio(f64::INFINITY, 10), MAX_DRIFT);
        // Agreement (including the all-zero case) is ratio 1.
        assert_eq!(drift_ratio(0.0, 0), 1.0);
        assert_eq!(drift_ratio(1e-6, 0), 1.0);
        assert_eq!(drift_ratio(7.0, 7), 1.0);
        // Symmetric 10x drift either way.
        assert_eq!(drift_ratio(10.0, 100), 10.0);
        assert_eq!(drift_ratio(100.0, 10), 10.0);
        // Huge actuals stay finite and capped.
        assert_eq!(drift_ratio(1.0, u64::MAX), MAX_DRIFT);
    }

    /// `(path, escapes)` of every node, in walk order.
    fn escapes(nodes: &[ActualNode<'_>]) -> Vec<(Vec<usize>, bool)> {
        nodes
            .iter()
            .map(|n| (n.path.clone(), n.escapes()))
            .collect()
    }

    #[test]
    fn walk_pairs_plan_and_trace_inputs_first() {
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (_, p) = qb.get(m.ids.person_extent, "p");
        let (_, c) = qb.get(m.ids.cities, "c");
        let name = qb.eq_const(c, m.ids.city_name, Value::str("Lima"));
        let mayor = qb.ref_eq(c, m.ids.city_mayor, p);
        let env = qb.into_env();
        let n = m.catalog.collection(m.ids.cities).cardinality;

        // Filter over a scan: fresh, stale-scan and grown-filter traces.
        let plan = scan_filter_plan(&m, name, c, n as f64, 1.0);
        let fresh = trace(1, vec![trace(n, vec![])]);
        let nodes = walk_actual(&env, &plan, &fresh);
        assert_eq!(escapes(&nodes), [(vec![0], false), (vec![], false)]);
        assert!(matches!(nodes[0].plan.op, PhysicalOp::FileScan { .. }));
        assert_eq!(nodes[1].interval, CardInterval::at_most(n as f64));
        assert_eq!(nodes[1].drift, 1.0);
        // Stale statistics: the scan no longer matches the catalog.
        let stale = trace(1, vec![trace(n - 2, vec![])]);
        let nodes = walk_actual(&env, &plan, &stale);
        assert_eq!(escapes(&nodes), [(vec![0], true), (vec![], false)]);
        // A filter emitting more rows than its input is miscounting.
        let grew = trace(n + 5, vec![trace(n, vec![])]);
        let nodes = walk_actual(&env, &plan, &grew);
        assert_eq!(escapes(&nodes), [(vec![0], false), (vec![], true)]);

        // A pointer join's target scan never runs: it has no trace node
        // and no walk node, and its source alone bounds the join.
        let scan = |coll, var, out_card| PhysicalPlan {
            op: PhysicalOp::FileScan { coll, var },
            children: vec![],
            est: PlanEst {
                out_card,
                ..Default::default()
            },
        };
        let join = |op, children| PhysicalPlan {
            op,
            children,
            est: PlanEst::default(),
        };
        let pj = join(
            PhysicalOp::PointerJoin { pred: mayor },
            vec![
                scan(m.ids.cities, c, n as f64),
                scan(m.ids.person_extent, p, 0.0),
            ],
        );
        let ran = trace(n, vec![trace(n, vec![])]);
        let nodes = walk_actual(&env, &pj, &ran);
        assert_eq!(escapes(&nodes), [(vec![0], false), (vec![], false)]);
        assert_eq!(nodes[1].interval, CardInterval::exact(n as f64));
        // The join's zero-row estimate against rows is maximal drift.
        assert_eq!(nodes[1].drift, MAX_DRIFT);

        // Where the bound needs the input that never ran, it is vacuous.
        let hj = join(
            PhysicalOp::HybridHashJoin { pred: mayor },
            vec![
                scan(m.ids.person_extent, p, 0.0),
                scan(m.ids.cities, c, 0.0),
            ],
        );
        let people_n = m.catalog.collection(m.ids.person_extent).cardinality;
        let left_only = trace(n, vec![trace(people_n, vec![])]);
        let nodes = walk_actual(&env, &hj, &left_only);
        assert_eq!(escapes(&nodes), [(vec![0], false), (vec![], false)]);
        assert_eq!(nodes[1].interval, CardInterval::UNBOUNDED);
        // Both inputs ran: containment caps the join at one row per city,
        // and walk order is left to right.
        let both = trace(n, vec![trace(people_n, vec![]), trace(n, vec![])]);
        let nodes = walk_actual(&env, &hj, &both);
        let paths: Vec<_> = nodes.iter().map(|n| n.path.clone()).collect();
        assert_eq!(paths, [vec![0], vec![1], vec![]]);
        assert_eq!(nodes[2].interval, CardInterval::at_most(n as f64));
    }
}
