//! The ObjectStore-style greedy baseline.
//!
//! "ObjectStore's query optimizer uses a fixed, greedy strategy designed
//! to exploit any available indices. We show that such a greedy strategy
//! will not always lead to the optimal plan." (§4, Table 3.)
//!
//! The strategy, reconstructed from the paper's Figure 13:
//!
//! 1. if any conjunct over the base collection (directly or through a
//!    single-valued path) has an index, use the *first* such index for the
//!    initial scan — no cost comparison;
//! 2. replay the query's Unnest/Mat chain; whenever a materialized
//!    component carries an indexed conjunct, resolve it with an index scan
//!    joined by hybrid hash join (use the index because it exists);
//! 3. everything left becomes filters (after assembling the components
//!    they mention);
//! 4. project on top.
//!
//! No costing happens during construction; costs are annotated afterwards
//! through the model the caller hands in — the one its search prices with,
//! feedback overlay included — so Table 3 and a degraded request compare
//! like against like.

use crate::model::OodbModel;
use crate::optimizer::annotate_physical;
use oodb_algebra::{
    CmpOp, LogicalOp, LogicalPlan, Operand, PhysicalOp, PhysicalPlan, PlanEst, Pred, QueryEnv,
    Term, VarId, VarOrigin,
};
use oodb_object::Value;

/// One step of the decomposed linear query.
enum ChainStep {
    Mat(VarId),
    Unnest(VarId),
}

/// Produces the greedy plan for a linear query
/// (`Project? · Select* · (Mat|Unnest)* · Get`). Returns `None` for plan
/// shapes outside the greedy strategy's repertoire (explicit joins, set
/// operators) — the real ObjectStore optimizer had the same limitation.
/// `model` prices the plan; its environment is the query's.
pub fn greedy_plan(model: &OodbModel<'_>, plan: &LogicalPlan) -> Option<PhysicalPlan> {
    let env = model.env;

    // ---- decompose -------------------------------------------------------
    let mut project: Option<Vec<Operand>> = None;
    let mut terms: Vec<Term> = Vec::new();
    let mut chain: Vec<ChainStep> = Vec::new();
    let mut cur = plan;
    loop {
        match &cur.op {
            LogicalOp::Project { items } => {
                if project.is_some() || !terms.is_empty() || !chain.is_empty() {
                    return None;
                }
                project = Some(items.clone());
                cur = &cur.children[0];
            }
            LogicalOp::Select { pred } => {
                terms.extend(env.preds.pred(*pred).terms.iter().cloned());
                cur = &cur.children[0];
            }
            LogicalOp::Mat { out } => {
                chain.push(ChainStep::Mat(*out));
                cur = &cur.children[0];
            }
            LogicalOp::Unnest { out } => {
                chain.push(ChainStep::Unnest(*out));
                cur = &cur.children[0];
            }
            LogicalOp::Get { coll, var } => {
                chain.reverse(); // bottom-up order
                return build(model, env, *coll, *var, chain, terms, project);
            }
            LogicalOp::Join { .. } | LogicalOp::SetOp { .. } => return None,
        }
    }
}

fn const_eq_term(t: &Term) -> Option<(VarId, oodb_object::FieldId, Value)> {
    if t.op != CmpOp::Eq {
        return None;
    }
    match (&t.left, &t.right) {
        (Operand::Attr { var, field }, Operand::Const(v))
        | (Operand::Const(v), Operand::Attr { var, field }) => Some((*var, *field, v.clone())),
        _ => None,
    }
}

fn node(op: PhysicalOp, children: Vec<PhysicalPlan>) -> PhysicalPlan {
    PhysicalPlan {
        op,
        children,
        est: PlanEst::default(),
    }
}

fn build(
    model: &OodbModel<'_>,
    env: &QueryEnv,
    base_coll: oodb_object::CollectionId,
    base_var: VarId,
    chain: Vec<ChainStep>,
    mut terms: Vec<Term>,
    project: Option<Vec<Operand>>,
) -> Option<PhysicalPlan> {
    // ---- 1. base access: grab the first index that matches any term ----
    let mut base: Option<PhysicalPlan> = None;
    for (i, t) in terms.iter().enumerate() {
        let Some((v, f, _)) = const_eq_term(t) else {
            continue;
        };
        let Some((coll, bvar, links)) = model.index_path_of(v) else {
            continue;
        };
        if coll != base_coll || bvar != base_var {
            continue;
        }
        if let Some((idx_id, _)) = env.catalog.find_index(coll, &links, f) {
            let pred = env.preds.intern(Pred::term(t.clone()));
            base = Some(node(
                PhysicalOp::IndexScan {
                    index: idx_id,
                    var: base_var,
                    pred,
                },
                vec![],
            ));
            terms.remove(i);
            break;
        }
    }
    let mut current = base.unwrap_or_else(|| {
        node(
            PhysicalOp::FileScan {
                coll: base_coll,
                var: base_var,
            },
            vec![],
        )
    });

    // ---- 2. replay the chain, exploiting component indexes ------------
    for step in chain {
        match step {
            ChainStep::Unnest(out) => {
                current = node(PhysicalOp::AlgUnnest { out }, vec![current]);
            }
            ChainStep::Mat(out) => {
                // Look for an indexed conjunct on this component.
                let mut joined = false;
                if let Some(domain) = model.var_domain(out) {
                    for (i, t) in terms.iter().enumerate() {
                        let Some((v, f, _)) = const_eq_term(t) else {
                            continue;
                        };
                        if v != out {
                            continue;
                        }
                        if let Some((idx_id, _)) = env.catalog.find_index(domain, &[], f) {
                            let scan_pred = env.preds.intern(Pred::term(t.clone()));
                            let index_scan = node(
                                PhysicalOp::IndexScan {
                                    index: idx_id,
                                    var: out,
                                    pred: scan_pred,
                                },
                                vec![],
                            );
                            let ref_operand = match env.scopes.var(out).origin {
                                VarOrigin::Mat {
                                    src,
                                    field: Some(fld),
                                } => Operand::RefField {
                                    var: src,
                                    field: fld,
                                },
                                VarOrigin::Mat { src, field: None } => Operand::VarRef(src),
                                _ => return None,
                            };
                            let join_pred =
                                env.preds.cmp(ref_operand, CmpOp::Eq, Operand::VarOid(out));
                            // Hash table on the indexed (referenced) side.
                            current = node(
                                PhysicalOp::HybridHashJoin { pred: join_pred },
                                vec![index_scan, current],
                            );
                            terms.remove(i);
                            joined = true;
                            break;
                        }
                    }
                }
                if !joined {
                    current = node(
                        PhysicalOp::Assembly {
                            targets: vec![out],
                            window: model.config.assembly_window,
                        },
                        vec![current],
                    );
                }
            }
        }
    }

    // ---- 3. residual filters -------------------------------------------
    if !terms.is_empty() {
        let pred = env.preds.intern(Pred { terms });
        current = node(PhysicalOp::Filter { pred }, vec![current]);
    }

    // ---- 4. projection ----------------------------------------------------
    if let Some(items) = project {
        current = node(PhysicalOp::AlgProject { items }, vec![current]);
    }

    Some(annotate_physical(model, &current).0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{greedy_fallback, plan_cost};
    use crate::{CostParams, OptimizerConfig};
    use oodb_algebra::{QueryBuilder, StatsOverlay, VarSet};
    use oodb_object::paper::paper_model;
    use std::sync::Arc;

    fn default_model(env: &QueryEnv) -> OodbModel<'_> {
        OodbModel::new(env, CostParams::default(), OptimizerConfig::default())
    }

    /// A degraded request is priced by the model its search would have
    /// used: under a feedback overlay, the greedy plan's cost is the
    /// overlay model's annotation of it, not the catalog's.
    #[test]
    fn greedy_fallback_prices_with_the_model_it_is_given() {
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (emps, e) = qb.get(m.ids.employees, "e");
        let name = qb.term(
            Operand::Attr {
                var: e,
                field: m.ids.person_name,
            },
            CmpOp::Eq,
            Operand::Const(Value::str("Fred")),
        );
        let pred = qb.conj(vec![name]);
        let q = qb.select(emps, pred);
        let env = qb.into_env();
        let mut overlay = StatsOverlay::new();
        overlay.set(
            oodb_algebra::overlay::pred_key(&env, env.preds.pred(pred)),
            0.5,
        );
        let corrected = default_model(&env).with_overlay(Arc::new(overlay));

        let (phys, cost, _) = greedy_fallback(&corrected, &q, VarSet::single(e)).unwrap();
        let (repriced, _) = annotate_physical(&corrected, &phys);
        assert_eq!(cost, plan_cost(&repriced));
        let (_, catalog_cost, _) =
            greedy_fallback(&default_model(&env), &q, VarSet::single(e)).unwrap();
        assert!(
            cost.total() > catalog_cost.total(),
            "{cost:?} vs {catalog_cost:?}"
        );
    }

    /// Query 4 with both indexes: greedy uses both (Figure 13), pairing
    /// the time index scan with a hash join against the name index scan.
    #[test]
    fn greedy_query4_uses_both_indexes() {
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (tasks, t) = qb.get(m.ids.tasks, "t");
        let (unn, mm) = qb.unnest(tasks, t, m.ids.task_team_members, "m");
        let (matd, e) = qb.mat_deref(unn, mm, "e");
        let name_t = qb.term(
            Operand::Attr {
                var: e,
                field: m.ids.person_name,
            },
            CmpOp::Eq,
            Operand::Const(Value::str("Fred")),
        );
        let time_t = qb.term(
            Operand::Attr {
                var: t,
                field: m.ids.task_time,
            },
            CmpOp::Eq,
            Operand::Const(Value::Int(100)),
        );
        let pred = qb.conj(vec![name_t, time_t]);
        let q = qb.select(matd, pred);
        let env = qb.into_env();

        let plan = greedy_plan(&default_model(&env), &q).expect("greedy plan");
        let rendered = oodb_algebra::display::render_physical(&env, &plan);
        // Both index scans present (time on Tasks, name on Employees).
        let index_scans = plan
            .iter_ops()
            .into_iter()
            .filter(|op| matches!(op, PhysicalOp::IndexScan { .. }))
            .count();
        assert_eq!(index_scans, 2, "{rendered}");
        assert!(
            plan.contains_op(&|op| matches!(op, PhysicalOp::HybridHashJoin { .. })),
            "{rendered}"
        );
        assert!(
            !plan.contains_op(&|op| matches!(op, PhysicalOp::Assembly { .. })),
            "greedy with both indexes avoids assembly:\n{rendered}"
        );
    }

    /// Without any index, greedy degenerates to scan + unnest + assembly +
    /// filter — identical to the naive plan.
    #[test]
    fn greedy_without_indexes_degenerates_to_naive() {
        let m = paper_model();
        let catalog = m.catalog.with_only_indexes(&[]);
        let mut qb = QueryBuilder::new(m.schema.clone(), catalog);
        let (tasks, t) = qb.get(m.ids.tasks, "t");
        let (unn, mm) = qb.unnest(tasks, t, m.ids.task_team_members, "m");
        let (matd, e) = qb.mat_deref(unn, mm, "e");
        let pred = qb.conj(vec![
            qb.term(
                Operand::Attr {
                    var: e,
                    field: m.ids.person_name,
                },
                CmpOp::Eq,
                Operand::Const(Value::str("Fred")),
            ),
            qb.term(
                Operand::Attr {
                    var: t,
                    field: m.ids.task_time,
                },
                CmpOp::Eq,
                Operand::Const(Value::Int(100)),
            ),
        ]);
        let q = qb.select(matd, pred);
        let env = qb.into_env();

        let plan = greedy_plan(&default_model(&env), &q).expect("greedy plan");
        assert!(matches!(plan.op, PhysicalOp::Filter { .. }));
        assert!(plan.contains_op(&|op| matches!(op, PhysicalOp::FileScan { .. })));
        assert!(plan.contains_op(&|op| matches!(op, PhysicalOp::Assembly { .. })));
        assert!(!plan.contains_op(&|op| matches!(op, PhysicalOp::IndexScan { .. })));
    }

    /// Greedy declines plans with explicit joins.
    #[test]
    fn greedy_rejects_join_shapes() {
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (emp, e) = qb.get(m.ids.employees, "e");
        let (dept, d) = qb.get(m.ids.department_extent, "d");
        let pred = qb.ref_eq(e, m.ids.emp_dept, d);
        let q = qb.join(emp, dept, pred);
        let env = qb.into_env();
        assert!(greedy_plan(&default_model(&env), &q).is_none());
    }
}
