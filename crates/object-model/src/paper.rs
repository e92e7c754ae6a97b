//! The paper's schema and catalog (Table 1), reconstructed.
//!
//! The SIGMOD '93 scan of Table 1 is OCR-damaged; values below are fixed
//! from the prose where possible (e.g. "1,000, the number of Department
//! objects") and otherwise chosen to be era-plausible. Every choice is
//! recorded in `DESIGN.md` / `EXPERIMENTS.md`.
//!
//! | Set type    | Set name  | Card.  | Obj bytes | Extent? | Extent card. |
//! |-------------|-----------|--------|-----------|---------|--------------|
//! | Capital     | Capitals  | 160    | 400       | no      | —            |
//! | City        | Cities    | 10,000 | 200       | no      | —            |
//! | Country     | —         | —      | 300       | yes     | 160          |
//! | Department  | —         | —      | 400       | yes     | 1,000        |
//! | Employee    | Employees | 50,000 | 250       | yes     | 200,000      |
//! | Information | —         | —      | 400       | yes     | 1,000        |
//! | Job         | —         | —      | 250       | yes     | 5,000        |
//! | Person      | —         | —      | 100       | yes     | 100,000      |
//! | Plant       | —         | —      | 1,000     | **no**  | —            |
//! | Task        | Tasks     | 2,000  | 120       | yes     | 10,000       |
//!
//! `Plant` deliberately has no extent: the optimizer is then
//! cardinality-blind for plants, reproducing the paper's 50,000-page-fault
//! estimate for the naive Query 1 plan.

use crate::catalog::{Catalog, CollectionDef, CollectionId, CollectionKind, IndexDef, IndexId};
use crate::schema::{AttrType, FieldId, FieldKind, Schema, TypeId};

/// Handles to every schema/catalog entity the experiments reference.
#[derive(Clone, Debug)]
pub struct PaperIds {
    /// `Person` type.
    pub person: TypeId,
    /// `Employee` type (subtype of `Person`).
    pub employee: TypeId,
    /// `Department` type.
    pub department: TypeId,
    /// `Plant` type (no extent!).
    pub plant: TypeId,
    /// `Job` type.
    pub job: TypeId,
    /// `Country` type.
    pub country: TypeId,
    /// `City` type.
    pub city: TypeId,
    /// `Capital` type (subtype of `City`).
    pub capital: TypeId,
    /// `Task` type.
    pub task: TypeId,
    /// `Information` type.
    pub information: TypeId,

    /// `Person.name`.
    pub person_name: FieldId,
    /// `Person.age`.
    pub person_age: FieldId,
    /// `Employee.salary`.
    pub emp_salary: FieldId,
    /// `Employee.last_raise`.
    pub emp_last_raise: FieldId,
    /// `Employee.dept` → `Department`.
    pub emp_dept: FieldId,
    /// `Employee.job` → `Job`.
    pub emp_job: FieldId,
    /// `Department.name`.
    pub dept_name: FieldId,
    /// `Department.floor`.
    pub dept_floor: FieldId,
    /// `Department.plant` → `Plant`.
    pub dept_plant: FieldId,
    /// `Plant.name`.
    pub plant_name: FieldId,
    /// `Plant.location`.
    pub plant_location: FieldId,
    /// `Job.name`.
    pub job_name: FieldId,
    /// `Job.pay_grade`.
    pub job_pay_grade: FieldId,
    /// `Country.name`.
    pub country_name: FieldId,
    /// `Country.president` → `Person`.
    pub country_president: FieldId,
    /// `Country.info` → `Information`.
    pub country_info: FieldId,
    /// `City.name`.
    pub city_name: FieldId,
    /// `City.population`.
    pub city_population: FieldId,
    /// `City.mayor` → `Person`.
    pub city_mayor: FieldId,
    /// `City.country` → `Country`.
    pub city_country: FieldId,
    /// `Capital.since`.
    pub capital_since: FieldId,
    /// `Task.title`.
    pub task_title: FieldId,
    /// `Task.time` (completion time in hours; Query 4 selects on it).
    pub task_time: FieldId,
    /// `Task.team_members` → set of `Employee`.
    pub task_team_members: FieldId,
    /// `Information.subject`.
    pub info_subject: FieldId,

    /// `Capitals` user set.
    pub capitals: CollectionId,
    /// `Cities` user set.
    pub cities: CollectionId,
    /// `Employees` user set.
    pub employees: CollectionId,
    /// `Tasks` user set.
    pub tasks: CollectionId,
    /// `extent(Country)`.
    pub country_extent: CollectionId,
    /// `extent(Department)`.
    pub department_extent: CollectionId,
    /// `extent(Employee)`.
    pub employee_extent: CollectionId,
    /// `extent(Information)`.
    pub information_extent: CollectionId,
    /// `extent(Job)`.
    pub job_extent: CollectionId,
    /// `extent(Person)`.
    pub person_extent: CollectionId,
    /// `extent(Task)`.
    pub task_extent: CollectionId,

    /// Path index `Cities(mayor.name)` — Queries 2 and 3.
    pub idx_cities_mayor_name: IndexId,
    /// Attribute index `Tasks(time)` — Query 4 ("Time only").
    pub idx_tasks_time: IndexId,
    /// Attribute index `Employees(name)` — Query 4 ("Name only").
    pub idx_employees_name: IndexId,
}

/// A bundle of schema, catalog and handles.
#[derive(Clone, Debug)]
pub struct PaperModel {
    /// The schema.
    pub schema: Schema,
    /// The catalog with Table 1 statistics and the experiments' indexes.
    pub catalog: Catalog,
    /// Entity handles.
    pub ids: PaperIds,
}

/// Number of distinct `Person.name` values assumed by selectivity
/// estimation for the `Cities(mayor.name)` path index ("the optimizer
/// estimates that only 2 cities have mayors named Joe": 10,000 / 5,000).
pub const DISTINCT_MAYOR_NAMES: u64 = 5_000;
/// Distinct `Task.time` values (2,000 tasks / 50 → 40 tasks per time).
pub const DISTINCT_TASK_TIMES: u64 = 50;
/// Distinct `Employee.name` values in the `Employees` set (50,000 / 100 →
/// 500 employees per name; fetching them through the unclustered name
/// index is what makes the greedy Query 4 plan slow).
pub const DISTINCT_EMPLOYEE_NAMES: u64 = 100;
/// Average `Task.team_members` set size (2,000 × 5 = 10,000 member refs,
/// matching the ~108 s naive estimate for Query 4 without indexes).
pub const AVG_TEAM_MEMBERS: u64 = 5;

/// Builds the paper's schema.
pub fn paper_schema() -> (Schema, PaperIds) {
    let mut b = Schema::builder();

    let person = b.add_type("Person", None);
    let employee = b.add_type("Employee", Some(person));
    let department = b.add_type("Department", None);
    let plant = b.add_type("Plant", None);
    let job = b.add_type("Job", None);
    let country = b.add_type("Country", None);
    let city = b.add_type("City", None);
    let capital = b.add_type("Capital", Some(city));
    let task = b.add_type("Task", None);
    let information = b.add_type("Information", None);

    let person_name = b.add_field(person, "name", FieldKind::Attr(AttrType::Str));
    let person_age = b.add_field(person, "age", FieldKind::Attr(AttrType::Int));

    let emp_salary = b.add_field(employee, "salary", FieldKind::Attr(AttrType::Int));
    let emp_last_raise = b.add_field(employee, "last_raise", FieldKind::Attr(AttrType::Date));
    let emp_dept = b.add_field(employee, "dept", FieldKind::Ref(department));
    let emp_job = b.add_field(employee, "job", FieldKind::Ref(job));

    let dept_name = b.add_field(department, "name", FieldKind::Attr(AttrType::Str));
    let dept_floor = b.add_field(department, "floor", FieldKind::Attr(AttrType::Int));
    let dept_plant = b.add_field(department, "plant", FieldKind::Ref(plant));

    let plant_name = b.add_field(plant, "name", FieldKind::Attr(AttrType::Str));
    let plant_location = b.add_field(plant, "location", FieldKind::Attr(AttrType::Str));

    let job_name = b.add_field(job, "name", FieldKind::Attr(AttrType::Str));
    let job_pay_grade = b.add_field(job, "pay_grade", FieldKind::Attr(AttrType::Int));

    let country_name = b.add_field(country, "name", FieldKind::Attr(AttrType::Str));
    let country_president = b.add_field(country, "president", FieldKind::Ref(person));
    let country_info = b.add_field(country, "info", FieldKind::Ref(information));

    let city_name = b.add_field(city, "name", FieldKind::Attr(AttrType::Str));
    let city_population = b.add_field(city, "population", FieldKind::Attr(AttrType::Int));
    let city_mayor = b.add_field(city, "mayor", FieldKind::Ref(person));
    let city_country = b.add_field(city, "country", FieldKind::Ref(country));

    let capital_since = b.add_field(capital, "since", FieldKind::Attr(AttrType::Date));

    let task_title = b.add_field(task, "title", FieldKind::Attr(AttrType::Str));
    let task_time = b.add_field(task, "time", FieldKind::Attr(AttrType::Int));
    let task_team_members = b.add_field(task, "team_members", FieldKind::RefSet(employee));

    let info_subject = b.add_field(information, "subject", FieldKind::Attr(AttrType::Str));

    let schema = b.build();
    let ids = PaperIds {
        person,
        employee,
        department,
        plant,
        job,
        country,
        city,
        capital,
        task,
        information,
        person_name,
        person_age,
        emp_salary,
        emp_last_raise,
        emp_dept,
        emp_job,
        dept_name,
        dept_floor,
        dept_plant,
        plant_name,
        plant_location,
        job_name,
        job_pay_grade,
        country_name,
        country_president,
        country_info,
        city_name,
        city_population,
        city_mayor,
        city_country,
        capital_since,
        task_title,
        task_time,
        task_team_members,
        info_subject,
        // Collection/index ids are filled in by `paper_model`; placeholder
        // values here are overwritten before the struct is exposed.
        capitals: CollectionId::from_index(0),
        cities: CollectionId::from_index(0),
        employees: CollectionId::from_index(0),
        tasks: CollectionId::from_index(0),
        country_extent: CollectionId::from_index(0),
        department_extent: CollectionId::from_index(0),
        employee_extent: CollectionId::from_index(0),
        information_extent: CollectionId::from_index(0),
        job_extent: CollectionId::from_index(0),
        person_extent: CollectionId::from_index(0),
        task_extent: CollectionId::from_index(0),
        idx_cities_mayor_name: IndexId::from_index(0),
        idx_tasks_time: IndexId::from_index(0),
        idx_employees_name: IndexId::from_index(0),
    };
    (schema, ids)
}

/// Builds the complete paper model: schema, Table 1 catalog, and the three
/// experiment indexes.
pub fn paper_model() -> PaperModel {
    paper_model_scaled(1)
}

/// Like [`paper_model`], but with every cardinality (and distinct-key
/// statistic) divided by `div` — used by tests and the executor-validation
/// experiments that need a small but proportionally faithful database.
pub fn paper_model_scaled(div: u64) -> PaperModel {
    let div = div.max(1);
    let sc = |n: u64| (n / div).max(1);
    let (schema, mut ids) = paper_schema();
    let mut cat = Catalog::new();

    let set = |name: &str, ty: TypeId, card: u64, bytes: u32| CollectionDef {
        name: name.to_string(),
        elem_type: ty,
        kind: CollectionKind::UserSet,
        cardinality: card,
        obj_bytes: bytes,
    };
    let extent = |ty_name: &str, ty: TypeId, card: u64, bytes: u32| CollectionDef {
        name: format!("extent({ty_name})"),
        elem_type: ty,
        kind: CollectionKind::Extent,
        cardinality: card,
        obj_bytes: bytes,
    };

    ids.capitals = cat.add_collection(set("Capitals", ids.capital, sc(160), 400));
    ids.cities = cat.add_collection(set("Cities", ids.city, sc(10_000), 200));
    ids.employees = cat.add_collection(set("Employees", ids.employee, sc(50_000), 250));
    ids.tasks = cat.add_collection(set("Tasks", ids.task, sc(2_000), 120));
    ids.country_extent = cat.add_collection(extent("Country", ids.country, sc(160), 300));
    ids.department_extent =
        cat.add_collection(extent("Department", ids.department, sc(1_000), 400));
    ids.employee_extent = cat.add_collection(extent("Employee", ids.employee, sc(200_000), 250));
    ids.information_extent =
        cat.add_collection(extent("Information", ids.information, sc(1_000), 400));
    ids.job_extent = cat.add_collection(extent("Job", ids.job, sc(5_000), 250));
    ids.person_extent = cat.add_collection(extent("Person", ids.person, sc(100_000), 100));
    ids.task_extent = cat.add_collection(extent("Task", ids.task, sc(10_000), 120));
    // Plant: NO extent, NO set — the optimizer has no cardinality for it.

    // Integrity constraints and set statistics the optimizer may use:
    // task team members are drawn from the Employees set, and teams average
    // AVG_TEAM_MEMBERS employees.
    cat.set_ref_domain(ids.task_team_members, ids.employees);
    cat.set_fanout(ids.task_team_members, AVG_TEAM_MEMBERS as f64);

    ids.idx_cities_mayor_name = cat.add_index(IndexDef {
        name: "Cities_mayor_name".into(),
        collection: ids.cities,
        path: vec![ids.city_mayor],
        key: ids.person_name,
        distinct_keys: sc(DISTINCT_MAYOR_NAMES),
        clustered: false,
    });
    ids.idx_tasks_time = cat.add_index(IndexDef {
        name: "Tasks_time".into(),
        collection: ids.tasks,
        path: vec![],
        key: ids.task_time,
        distinct_keys: DISTINCT_TASK_TIMES.min(sc(2_000)),
        clustered: false,
    });
    ids.idx_employees_name = cat.add_index(IndexDef {
        name: "Employees_name".into(),
        collection: ids.employees,
        path: vec![],
        key: ids.person_name,
        distinct_keys: DISTINCT_EMPLOYEE_NAMES.min(sc(50_000)),
        clustered: false,
    });

    PaperModel {
        schema,
        catalog: cat,
        ids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_catalog_is_valid() {
        let m = paper_model();
        assert_eq!(m.catalog.check(&m.schema), Ok(()));
    }

    #[test]
    fn table1_cardinalities() {
        let m = paper_model();
        let card = |id| m.catalog.collection(id).cardinality;
        assert_eq!(card(m.ids.cities), 10_000);
        assert_eq!(card(m.ids.employees), 50_000);
        assert_eq!(card(m.ids.employee_extent), 200_000);
        assert_eq!(card(m.ids.department_extent), 1_000);
        assert_eq!(card(m.ids.job_extent), 5_000);
        assert_eq!(card(m.ids.person_extent), 100_000);
        assert_eq!(card(m.ids.country_extent), 160);
        assert_eq!(card(m.ids.capitals), 160);
    }

    #[test]
    fn plant_is_cardinality_blind() {
        let m = paper_model();
        assert!(
            m.catalog.extent_of(m.ids.plant).is_none(),
            "Plant must have no extent so assembly cannot bound its faults"
        );
    }

    #[test]
    fn employee_inherits_person_name() {
        let m = paper_model();
        assert_eq!(
            m.schema.field_by_name(m.ids.employee, "name"),
            Some(m.ids.person_name)
        );
    }

    #[test]
    fn experiment_indexes_resolvable() {
        let m = paper_model();
        assert!(m
            .catalog
            .find_index(m.ids.cities, &[m.ids.city_mayor], m.ids.person_name)
            .is_some());
        assert!(m
            .catalog
            .find_index(m.ids.tasks, &[], m.ids.task_time)
            .is_some());
        // Sweep helper removes the right ones.
        let none = m.catalog.with_only_indexes(&[]);
        assert_eq!(none.indexes().count(), 0);
        let time_only = m.catalog.with_only_indexes(&["Tasks_time"]);
        assert_eq!(time_only.indexes().count(), 1);
    }

    #[test]
    fn capital_is_subtype_of_city() {
        let m = paper_model();
        assert!(m.schema.is_subtype(m.ids.capital, m.ids.city));
    }
}
