//! The independent answer check.
//!
//! One plain nested-loop evaluator per query shape, reading the store
//! through `Store::members` and `Store::read_field` only. It shares no
//! code with the parser, the algebra, the optimizer, the search engine or
//! the executor: a wrong plan, a wrong rule or a wrong operator cannot be
//! wrong here in the same way.
//!
//! Rows are rendered the way the service renders them (projected values
//! joined by `" | "`, unprojected results as `var=oid`) and sorted, so a
//! full comparison is one `Vec<String>` equality.

use crate::pool::Shape;
use open_oodb::object::paper::PaperIds;
use open_oodb::object::{FieldId, Oid, Value};
use open_oodb::storage::Store;

fn deref(store: &Store, oid: Oid, field: FieldId) -> Oid {
    store
        .read_field(oid, field)
        .as_ref_oid()
        .expect("generated references are never null")
}

fn name_is(store: &Store, oid: Oid, field: FieldId, wanted: &str) -> bool {
    store.read_field(oid, field).as_str() == Some(wanted)
}

fn mayors_cities<'s>(
    store: &'s Store,
    ids: &'s PaperIds,
    mayor: &'s str,
) -> impl Iterator<Item = (Oid, Oid)> + 's {
    store.members(ids.cities).iter().filter_map(move |&city| {
        let person = deref(store, city, ids.city_mayor);
        name_is(store, person, ids.person_name, mayor).then_some((city, person))
    })
}

fn projected(values: &[&Value]) -> String {
    let cells: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    cells.join(" | ")
}

/// The sorted rows `shape` must return against `store`.
pub fn evaluate(store: &Store, ids: &PaperIds, shape: &Shape) -> Vec<String> {
    let mut rows: Vec<String> = match shape {
        Shape::Q1 { location } => store
            .members(ids.employees)
            .iter()
            .filter_map(|&e| {
                let dept = deref(store, e, ids.emp_dept);
                let plant = deref(store, dept, ids.dept_plant);
                name_is(store, plant, ids.plant_location, location).then(|| {
                    let job = deref(store, e, ids.emp_job);
                    projected(&[
                        store.read_field(e, ids.person_name),
                        store.read_field(job, ids.job_name),
                        store.read_field(dept, ids.dept_name),
                    ])
                })
            })
            .collect(),
        Shape::Q2 { mayor } => mayors_cities(store, ids, mayor)
            .map(|(city, _)| format!("c={city}"))
            .collect(),
        Shape::Q3 { mayor } => mayors_cities(store, ids, mayor)
            .map(|(city, person)| {
                projected(&[
                    store.read_field(person, ids.person_age),
                    store.read_field(city, ids.city_name),
                ])
            })
            .collect(),
        Shape::Q4 { time, member } => store
            .members(ids.tasks)
            .iter()
            .filter(|&&t| store.read_field(t, ids.task_time).as_int() == Some(*time))
            .flat_map(|&t| {
                // One row per matching member: the simplifier lowers
                // EXISTS to an unnest of the team, and the paper's Query 4
                // keeps one tuple per (task, member) binding.
                store
                    .read_field(t, ids.task_team_members)
                    .as_ref_set()
                    .expect("team_members is a reference set")
                    .iter()
                    .filter(|&&m| name_is(store, m, ids.person_name, member))
                    .map(move |_| format!("t={t}"))
            })
            .collect(),
        Shape::Fig2 { min_population } => store
            .members(ids.cities)
            .iter()
            .filter(|&&c| {
                let mayor = deref(store, c, ids.city_mayor);
                let president = deref(
                    store,
                    deref(store, c, ids.city_country),
                    ids.country_president,
                );
                store.read_field(mayor, ids.person_name)
                    == store.read_field(president, ids.person_name)
                    && store
                        .read_field(c, ids.city_population)
                        .as_int()
                        .is_some_and(|p| p > *min_population)
            })
            .map(|c| format!("c={c}"))
            .collect(),
    };
    rows.sort();
    rows
}

/// How an answer compares with the reference. Timed repetitions compare
/// row counts (O(1)); the warm-up and traced repetitions compare every row.
pub fn answer_matches(expected: &[String], rows: Option<&[String]>, row_count: usize) -> bool {
    row_count == expected.len() && rows.is_none_or(|r| r == expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{adhoc_stream, replay_pool};
    use open_oodb::prelude::*;

    fn service(scale_div: u64) -> (QueryService, PaperIds) {
        let (store, model) = generate_paper_db(GenConfig {
            scale_div,
            ..Default::default()
        });
        let svc = QueryService::new(
            store,
            CostParams::default(),
            OptimizerConfig::all_rules(),
            256,
            8,
        );
        (svc, model.ids)
    }

    #[test]
    fn reference_agrees_with_the_service_on_every_pool_query() {
        let (svc, ids) = service(10);
        let mut nonempty = 0;
        for shape in replay_pool().iter().chain(&adhoc_stream(3, 50)) {
            let out = svc.submit(&shape.text()).expect("pool query runs");
            let expected = evaluate(&svc.store(), &ids, shape);
            assert_eq!(out.rows, expected, "{shape:?}");
            nonempty += usize::from(!expected.is_empty());
        }
        assert!(nonempty >= 40, "only {nonempty} non-empty answers");
    }

    #[test]
    fn q4_counts_one_row_per_matching_member() {
        // "e00001" is a common Employees-set name: at paper scale some
        // team holds two of them, which is where EXISTS-as-unnest shows.
        let (svc, ids) = service(1);
        let store = svc.store();
        let (mut checked, mut repeated) = (0, 0);
        for time in (10..=500).step_by(10) {
            let shape = Shape::Q4 {
                time,
                member: "e00001".to_string(),
            };
            let expected = evaluate(&store, &ids, &shape);
            assert_eq!(svc.submit(&shape.text()).unwrap().rows, expected);
            checked += expected.len();
            repeated += expected.windows(2).filter(|w| w[0] == w[1]).count();
        }
        assert!(
            checked > 50 && repeated > 0,
            "{checked} rows, {repeated} repeated"
        );
    }

    #[test]
    fn a_corrupted_row_set_is_caught() {
        let (svc, ids) = service(100);
        let shape = Shape::Q1 {
            location: "Dallas".to_string(),
        };
        let expected = evaluate(&svc.store(), &ids, &shape);
        let good = svc.submit(&shape.text()).unwrap();
        assert!(answer_matches(&expected, Some(&good.rows), good.row_count));
        assert!(answer_matches(&expected, None, good.row_count));

        let mut altered = good.rows.clone();
        altered[0].push('x');
        assert!(!answer_matches(&expected, Some(&altered), altered.len()));
        let mut dropped = good.rows.clone();
        dropped.pop();
        assert!(!answer_matches(&expected, Some(&dropped), dropped.len()));
        assert!(!answer_matches(&expected, None, good.row_count + 1));
        let mut swapped = good.rows;
        swapped[0] = "\"nobody\" | \"job-0\" | \"dept-0\"".to_string();
        assert!(!answer_matches(&expected, Some(&swapped), swapped.len()));
    }
}
