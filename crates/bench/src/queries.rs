//! The paper's evaluation queries (§4), in their simplified-algebra form.
//!
//! Each constructor returns the exact logical expression the corresponding
//! figure shows as optimizer input, together with the environment and the
//! result variables the query must deliver in memory;
//! [`canonical_queries`] is the same four as ZQL text, for tests that go
//! through a service.

use oodb_algebra::{LogicalPlan, QueryBuilder, QueryEnv, VarId, VarSet};
use oodb_object::paper::PaperModel;
use oodb_object::Value;

/// A ready-to-optimize query: environment + plan + required result.
pub struct PaperQuery {
    /// Shared context (scopes, predicates).
    pub env: QueryEnv,
    /// The simplified logical algebra (the figure's expression).
    pub plan: LogicalPlan,
    /// Variables the result must deliver in memory.
    pub result_vars: VarSet,
    /// Interesting variables by role, for assertions and display.
    pub vars: Vec<(String, VarId)>,
}

impl PaperQuery {
    /// Looks up a named variable.
    pub fn var(&self, name: &str) -> VarId {
        self.vars
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("no var {name:?}"))
    }
}

/// **Query 1** (Figure 5): names, department and job of all employees who
/// work in a plant in Dallas.
///
/// ```text
/// Project e.name, e.job.name, e.dept.name
///   Select e.dept.plant.location == "Dallas"
///     Mat e.dept.plant
///       Mat e.dept
///         Mat e.job
///           Get Employees: e
/// ```
pub fn query1(m: &PaperModel) -> PaperQuery {
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (emp, e) = qb.get(m.ids.employees, "e");
    let (p, j) = qb.mat(emp, e, m.ids.emp_job, "j");
    let (p, d) = qb.mat(p, e, m.ids.emp_dept, "d");
    let (p, dp) = qb.mat(p, d, m.ids.dept_plant, "dp");
    let pred = qb.eq_const(dp, m.ids.plant_location, Value::str("Dallas"));
    let sel = qb.select(p, pred);
    let plan = qb.project(
        sel,
        vec![
            qb.attr(e, m.ids.person_name),
            qb.attr(j, m.ids.job_name),
            qb.attr(d, m.ids.dept_name),
        ],
    );
    PaperQuery {
        env: qb.into_env(),
        plan,
        result_vars: VarSet::EMPTY, // the projection decides
        vars: vec![
            ("e".into(), e),
            ("j".into(), j),
            ("d".into(), d),
            ("dp".into(), dp),
        ],
    }
}

/// **Query 2** (Figure 8): cities whose mayor is called "Joe".
///
/// ```text
/// Select c.mayor.name == "Joe"
///   Mat c.mayor
///     Get Cities: c
/// ```
pub fn query2(m: &PaperModel) -> PaperQuery {
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (cities, c) = qb.get(m.ids.cities, "c");
    let (p, cm) = qb.mat(cities, c, m.ids.city_mayor, "cm");
    let pred = qb.eq_const(cm, m.ids.person_name, Value::str("Joe"));
    let plan = qb.select(p, pred);
    PaperQuery {
        env: qb.into_env(),
        plan,
        result_vars: VarSet::single(c),
        vars: vec![("c".into(), c), ("cm".into(), cm)],
    }
}

/// **Query 3** (Figure 10): Query 2 plus the mayor's age in the result —
/// the mayor component must actually be retrieved.
///
/// ```text
/// Project c.mayor.age, c.name
///   Select c.mayor.name == "Joe"
///     Mat c.mayor
///       Get Cities: c
/// ```
pub fn query3(m: &PaperModel) -> PaperQuery {
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (cities, c) = qb.get(m.ids.cities, "c");
    let (p, cm) = qb.mat(cities, c, m.ids.city_mayor, "cm");
    let pred = qb.eq_const(cm, m.ids.person_name, Value::str("Joe"));
    let sel = qb.select(p, pred);
    let plan = qb.project(
        sel,
        vec![qb.attr(cm, m.ids.person_age), qb.attr(c, m.ids.city_name)],
    );
    PaperQuery {
        env: qb.into_env(),
        plan,
        result_vars: VarSet::EMPTY,
        vars: vec![("c".into(), c), ("cm".into(), cm)],
    }
}

/// **Query 4** (Figure 12, after \[14\] with a slight modification): tasks
/// with a completion time of 100 hours and a team member called "Fred".
///
/// ```text
/// Select e.name == "Fred" and t.time == 100
///   Mat m.employee: e
///     Unnest t.team_members: m
///       Get Tasks: t
/// ```
pub fn query4(m: &PaperModel) -> PaperQuery {
    query4_with_catalog(m, m.catalog.clone())
}

/// Query 4 against a modified catalog (the Table 3 index-availability
/// sweep).
pub fn query4_with_catalog(m: &PaperModel, catalog: oodb_object::Catalog) -> PaperQuery {
    let mut qb = QueryBuilder::new(m.schema.clone(), catalog);
    let (tasks, t) = qb.get(m.ids.tasks, "t");
    let (p, mm) = qb.unnest(tasks, t, m.ids.task_team_members, "m");
    let (p, e) = qb.mat_deref(p, mm, "e");
    let name_term = qb.term(
        oodb_algebra::Operand::Attr {
            var: e,
            field: m.ids.person_name,
        },
        oodb_algebra::CmpOp::Eq,
        oodb_algebra::Operand::Const(Value::str("Fred")),
    );
    let time_term = qb.term(
        oodb_algebra::Operand::Attr {
            var: t,
            field: m.ids.task_time,
        },
        oodb_algebra::CmpOp::Eq,
        oodb_algebra::Operand::Const(Value::Int(100)),
    );
    let pred = qb.conj(vec![name_term, time_term]);
    let plan = qb.select(p, pred);
    PaperQuery {
        env: qb.into_env(),
        plan,
        result_vars: VarSet::single(t),
        vars: vec![("t".into(), t), ("m".into(), mm), ("e".into(), e)],
    }
}

/// The **Figure 2** query: cities whose mayor shares the name of their
/// country's president — a two-branch path expression.
///
/// ```text
/// Select c.mayor.name == c.country.president.name
///   Mat c.country.president
///     Mat c.country
///       Mat c.mayor
///         Get Cities: c
/// ```
pub fn fig2_query(m: &PaperModel) -> PaperQuery {
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (cities, c) = qb.get(m.ids.cities, "c");
    let (p, cm) = qb.mat(cities, c, m.ids.city_mayor, "c.mayor");
    let (p, cc) = qb.mat(p, c, m.ids.city_country, "c.country");
    let (p, pres) = qb.mat(p, cc, m.ids.country_president, "c.country.president");
    let pred = qb.eq_attr(cm, m.ids.person_name, pres, m.ids.person_name);
    let plan = qb.select(p, pred);
    PaperQuery {
        env: qb.into_env(),
        plan,
        result_vars: VarSet::single(c),
        vars: vec![
            ("c".into(), c),
            ("cm".into(), cm),
            ("cc".into(), cc),
            ("pres".into(), pres),
        ],
    }
}

/// Queries 1–4 as ZQL text, one canonical representative per shape,
/// every constant present in the generated data.
pub fn canonical_queries() -> [String; 4] {
    [
        "SELECT Newobject(e.name(), e.job().name(), e.dept().name()) \
         FROM Employee e IN Employees \
         WHERE e.dept().plant().location() == \"Dallas\""
            .to_string(),
        "SELECT c FROM City c IN Cities WHERE c.mayor().name() == \"Joe\"".to_string(),
        "SELECT Newobject(c.mayor().age(), c.name()) \
         FROM City c IN Cities WHERE c.mayor().name() == \"Joe\""
            .to_string(),
        "SELECT t FROM Task t IN Tasks WHERE t.time() == 100 \
         && EXISTS (SELECT m FROM m IN t.team_members() WHERE m.name() == \"Fred\")"
            .to_string(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_object::paper::paper_model;

    #[test]
    fn all_queries_build() {
        let m = paper_model();
        assert_eq!(query1(&m).plan.size(), 6);
        assert_eq!(query2(&m).plan.size(), 3);
        assert_eq!(query3(&m).plan.size(), 4);
        assert_eq!(query4(&m).plan.size(), 4);
        assert_eq!(fig2_query(&m).plan.size(), 5);
    }

    #[test]
    fn figure5_rendering_matches_paper_shape() {
        let m = paper_model();
        let q = query1(&m);
        let text = oodb_algebra::display::render_logical(&q.env, &q.plan);
        assert!(
            text.contains("Project e.name, e.job.name, e.dept.name"),
            "{text}"
        );
        assert!(
            text.contains("Select d.plant.location == \"Dallas\""),
            "{text}"
        );
        assert!(text.contains("Mat e.dept: d"), "{text}");
        assert!(text.contains("Get Employees: e"), "{text}");
    }
}
