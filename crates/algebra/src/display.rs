//! Figure-style rendering of plans.
//!
//! Unary chains render as the paper's vertical figures:
//!
//! ```text
//! Select c.mayor.name == "Joe"
//! |
//! Mat c.mayor
//! |
//! Get Cities: c
//! ```
//!
//! Binary operators indent their inputs with tree connectors
//! ([`oodb_telemetry::render_tree`], the layout traces use too).

use crate::ops::{LogicalOp, PhysicalOp};
use crate::plan::{LogicalPlan, PhysicalPlan};
use crate::pred::{Operand, PredId};
use crate::scope::{VarId, VarOrigin};
use crate::QueryEnv;
use oodb_telemetry::render_tree;

/// Renders an operand (`c.mayor.name`, `"Joe"`, `d.self`).
pub fn render_operand(env: &QueryEnv, o: &Operand) -> String {
    match o {
        Operand::Const(v) => format!("{v}"),
        Operand::Attr { var, field } => format!(
            "{}.{}",
            env.scopes.var(*var).label,
            env.schema.field(*field).name
        ),
        Operand::VarOid(v) => format!("{}.self", env.scopes.var(*v).name),
        Operand::RefField { var, field } => format!(
            "{}.{}",
            env.scopes.var(*var).label,
            env.schema.field(*field).name
        ),
        Operand::VarRef(v) => env.scopes.var(*v).name.clone(),
    }
}

/// Renders a predicate (`a == b and c >= d`).
pub fn render_pred(env: &QueryEnv, pred: PredId) -> String {
    let p = env.preds.pred(pred);
    if p.terms.is_empty() {
        return "true".to_string();
    }
    p.terms
        .iter()
        .map(|t| {
            format!(
                "{} {} {}",
                render_operand(env, &t.left),
                t.op.symbol(),
                render_operand(env, &t.right)
            )
        })
        .collect::<Vec<_>>()
        .join(" and ")
}

fn render_var_intro(env: &QueryEnv, out: VarId, op_name: &str) -> String {
    let v = env.scopes.var(out);
    match v.origin {
        VarOrigin::Get(coll) => format!(
            "{op_name} {}: {}",
            env.catalog.collection(coll).name,
            v.name
        ),
        VarOrigin::Mat { .. } | VarOrigin::Unnest { .. } => {
            if v.label == v.name {
                format!("{op_name} {}", v.label)
            } else {
                format!("{op_name} {}: {}", v.label, v.name)
            }
        }
    }
}

/// One-line description of a logical operator.
pub fn render_logical_op(env: &QueryEnv, op: &LogicalOp) -> String {
    match op {
        LogicalOp::Get { coll, var } => format!(
            "Get {}: {}",
            env.catalog.collection(*coll).name,
            env.scopes.var(*var).name
        ),
        LogicalOp::Select { pred } => format!("Select {}", render_pred(env, *pred)),
        LogicalOp::Project { items } => format!(
            "Project {}",
            items
                .iter()
                .map(|i| render_operand(env, i))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        LogicalOp::Join { pred } => format!("Join {}", render_pred(env, *pred)),
        LogicalOp::Mat { out } => render_var_intro(env, *out, "Mat"),
        LogicalOp::Unnest { out } => render_var_intro(env, *out, "Unnest"),
        LogicalOp::SetOp { kind } => kind.name().to_string(),
    }
}

/// One-line description of a physical operator.
pub fn render_physical_op(env: &QueryEnv, op: &PhysicalOp) -> String {
    match op {
        PhysicalOp::FileScan { coll, var } => format!(
            "File Scan {}: {}",
            env.catalog.collection(*coll).name,
            env.scopes.var(*var).name
        ),
        PhysicalOp::IndexScan { index, var, pred } => format!(
            "Index Scan {}: {}, {}",
            env.catalog
                .collection(env.catalog.index(*index).collection)
                .name,
            env.scopes.var(*var).name,
            render_pred(env, *pred)
        ),
        PhysicalOp::Filter { pred } => format!("Filter {}", render_pred(env, *pred)),
        PhysicalOp::HybridHashJoin { pred } => {
            format!("Hybrid Hash Join {}", render_pred(env, *pred))
        }
        PhysicalOp::PointerJoin { pred } => format!("Pointer Join {}", render_pred(env, *pred)),
        PhysicalOp::Assembly { targets, window } => {
            let t = targets
                .iter()
                .map(|v| env.scopes.var(*v).label.clone())
                .collect::<Vec<_>>()
                .join(", ");
            if *window == 1 {
                format!("Assembly {t} (window 1)")
            } else {
                format!("Assembly {t}")
            }
        }
        PhysicalOp::WarmAssembly { target } => {
            format!("Warm Assembly {}", env.scopes.var(*target).label)
        }
        PhysicalOp::AlgProject { items } => format!(
            "Alg-Project {}",
            items
                .iter()
                .map(|i| render_operand(env, i))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        PhysicalOp::AlgUnnest { out } => render_var_intro(env, *out, "Alg-Unnest"),
        PhysicalOp::HashSetOp { .. } => op.name().to_string(),
        PhysicalOp::MergeJoin { pred } => format!("Merge Join {}", render_pred(env, *pred)),
        PhysicalOp::Sort { key } => format!(
            "Sort by {}.{}",
            env.scopes.var(key.var).label,
            env.schema.field(key.field).name
        ),
    }
}

/// Renders a logical plan in figure style.
pub fn render_logical(env: &QueryEnv, plan: &LogicalPlan) -> String {
    let mut out = String::new();
    let line = |p: &LogicalPlan, out: &mut String| out.push_str(&render_logical_op(env, &p.op));
    render_tree(&mut out, plan, &line, &|p: &LogicalPlan| &p.children);
    out
}

/// Renders a physical plan in figure style.
pub fn render_physical(env: &QueryEnv, plan: &PhysicalPlan) -> String {
    let mut out = String::new();
    let line = |p: &PhysicalPlan, out: &mut String| out.push_str(&render_physical_op(env, &p.op));
    render_tree(&mut out, plan, &line, &|p: &PhysicalPlan| &p.children);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryBuilder;
    use oodb_object::paper::paper_model;
    use oodb_object::Value;

    #[test]
    fn figure8_rendering() {
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (cities, c) = qb.get(m.ids.cities, "c");
        let (matd, cm) = qb.mat(cities, c, m.ids.city_mayor, "cm");
        let pred = qb.eq_const(cm, m.ids.person_name, Value::str("Joe"));
        let q = qb.select(matd, pred);
        let text = render_logical(qb.env(), &q);
        let expected = "Select c.mayor.name == \"Joe\"\n|\nMat c.mayor: cm\n|\nGet Cities: c\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn join_renders_as_tree() {
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (emp, e) = qb.get(m.ids.employees, "e");
        let (dept, d) = qb.get(m.ids.department_extent, "d");
        let pred = qb.ref_eq(e, m.ids.emp_dept, d);
        let q = qb.join(emp, dept, pred);
        let text = render_logical(qb.env(), &q);
        assert!(text.starts_with("Join e.dept == d.self\n"));
        assert!(text.contains("|-- Get Employees: e"));
        assert!(text.contains("`-- Get extent(Department): d"));
    }
}
