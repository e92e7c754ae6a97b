//! Synthetic database generator reproducing the paper's Table 1 population.
//!
//! The authors evaluated against catalog *statistics* only (the executor was
//! not operational); we additionally generate real objects so plans can be
//! run. Value distributions are chosen to make the optimizer's estimates
//! honest at full scale:
//!
//! * person names drawn uniformly from a 5,000-name pool containing
//!   `"Joe"` → ≈2 of the 10,000 cities have a mayor named Joe;
//! * `Employees`-set names drawn from a 100-name pool containing `"Fred"`
//!   → ≈500 Freds among 50,000 employees;
//! * plant locations from 10 values containing `"Dallas"` → ≈10% of
//!   departments are in Dallas (matching the naive 10% default);
//! * department floors 1–10 → ≈10% on the third floor;
//! * task completion times from 50 values containing `100`.
//!
//! Pass a [`GenConfig`] with `scale_div > 1` to generate a proportionally
//! shrunken database for fast tests.

use crate::store::{Store, StoreError};
use oodb_object::paper::{paper_model_scaled, PaperModel, AVG_TEAM_MEMBERS};
use oodb_object::{Date, Oid, TypeId, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Generator configuration.
#[derive(Clone, Copy, Debug)]
pub struct GenConfig {
    /// Divide every Table 1 cardinality by this factor (1 = paper scale).
    pub scale_div: u64,
    /// RNG seed; generation is fully deterministic per seed.
    pub seed: u64,
    /// Fraction of `Employees`-set members whose name is forced to the
    /// hot key `"Fred"` (0.0 = off, the honest default). The catalog's
    /// per-index distinct-key statistics are *not* adjusted, so any
    /// positive fraction beyond ≈1% makes the optimizer's uniformity
    /// assumption deliberately wrong — the lever behind the
    /// estimate-drift / re-optimization experiments.
    pub hot_employee_name_fraction: f64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            scale_div: 1,
            seed: 0x00DB_1993,
            hot_employee_name_fraction: 0.0,
        }
    }
}

impl GenConfig {
    /// A small database (1/100 scale) for unit tests.
    pub fn small() -> Self {
        GenConfig {
            scale_div: 100,
            ..Default::default()
        }
    }
}

fn name_pool(prefix: &str, n: u64, special: &str) -> Vec<Arc<str>> {
    let mut pool: Vec<Arc<str>> = (0..n.max(1))
        .map(|i| Arc::from(format!("{prefix}{i:05}").as_str()))
        .collect();
    pool[0] = Arc::from(special);
    pool
}

fn pick<R: Rng>(rng: &mut R, pool: &[Arc<str>]) -> Value {
    Value::Str(pool[rng.gen_range(0..pool.len())].clone())
}

/// `n` generated objects of `N` fields each, column-major as
/// [`Store::insert_columns`] takes them: `row(i)` draws object `i`'s values
/// in field order, and each lands in its field's column — no row is ever
/// materialised.
pub fn columns<const N: usize>(n: u64, mut row: impl FnMut(u64) -> [Value; N]) -> Vec<Vec<Value>> {
    let mut columns: Vec<Vec<Value>> = (0..N).map(|_| Vec::with_capacity(n as usize)).collect();
    for i in 0..n {
        // Moved out slot by slot: iterating the array by value measured
        // 2.4 times the whole row's cost.
        let mut row = row(i);
        for (column, value) in columns.iter_mut().zip(&mut row) {
            column.push(std::mem::replace(value, Value::Null));
        }
    }
    columns
}

/// Number of `Plant` objects generated (hidden from the catalog: `Plant`
/// has no extent, so the optimizer cannot see this number — the point of
/// the paper's 50,000-fault anecdote).
pub const PLANT_POPULATION: u64 = 200;
/// Distinct plant locations (contains `"Dallas"`).
pub const DISTINCT_PLANT_LOCATIONS: u64 = 10;

/// Generates the paper database at the requested scale. Returns the
/// populated store (indexes built) and the matching scaled model.
pub fn generate_paper_db(cfg: GenConfig) -> (Store, PaperModel) {
    let model = paper_model_scaled(cfg.scale_div);
    let store = populate(&model, cfg).expect("the generated columns fit the paper schema");
    (store, model)
}

/// The store [`generate_paper_db`] returns, every mutation checked by the
/// store itself.
fn populate(m: &PaperModel, cfg: GenConfig) -> Result<Store, StoreError> {
    let ids = &m.ids;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let card = |c| m.catalog.collection(c).cardinality;

    let person_names = name_pool("p", 5_000 / cfg.scale_div.max(1), "Joe");
    let employee_names = name_pool("e", 100, "Fred");
    let locations = name_pool("loc", DISTINCT_PLANT_LOCATIONS, "Dallas");
    let times: Vec<i64> = (1..=50).map(|i| i * 10).collect(); // contains 100

    let mut store = Store::new(m.schema.clone(), m.catalog.clone());

    // --- Persons -----------------------------------------------------
    let n_person = card(ids.person_extent);
    let persons = columns(n_person, |_| {
        [
            pick(&mut rng, &person_names),
            Value::Int(rng.gen_range(18..90)),
        ]
    });
    store.insert_columns(ids.person, n_person as usize, persons, 100)?;

    // --- Information --------------------------------------------------
    let n_info = card(ids.information_extent);
    let infos = columns(n_info, |i| [Value::str(&format!("subject-{i}"))]);
    store.insert_columns(ids.information, n_info as usize, infos, 400)?;

    // --- Countries -----------------------------------------------------
    let n_country = card(ids.country_extent);
    let countries = columns(n_country, |i| {
        [
            Value::str(&format!("country-{i}")),
            Value::Ref(Oid::new(ids.person, rng.gen_range(0..n_person) as u32)),
            Value::Ref(Oid::new(ids.information, rng.gen_range(0..n_info) as u32)),
        ]
    });
    store.insert_columns(ids.country, n_country as usize, countries, 300)?;

    // --- Plants (population invisible to the catalog) -------------------
    let n_plant = (PLANT_POPULATION / cfg.scale_div.max(1)).max(20.min(PLANT_POPULATION));
    let plants = columns(n_plant, |i| {
        // Locations round-robin over the pool: exactly 1-in-10 plants are
        // in Dallas, matching the optimizer's 10% default selectivity for
        // unindexed predicates.
        [
            Value::str(&format!("plant-{i}")),
            Value::Str(locations[(i % DISTINCT_PLANT_LOCATIONS) as usize].clone()),
        ]
    });
    store.insert_columns(ids.plant, n_plant as usize, plants, 1000)?;

    // --- Cities ----------------------------------------------------------
    let n_city = card(ids.cities);
    let cities = columns(n_city, |i| {
        [
            Value::str(&format!("city-{i}")),
            Value::Int(rng.gen_range(1_000..5_000_000)),
            Value::Ref(Oid::new(ids.person, rng.gen_range(0..n_person) as u32)),
            Value::Ref(Oid::new(ids.country, rng.gen_range(0..n_country) as u32)),
        ]
    });
    store.insert_columns(ids.city, n_city as usize, cities, 200)?;

    // --- Capitals (own type; City layout + `since`) ----------------------
    let n_capital = card(ids.capitals);
    let capitals = columns(n_capital, |i| {
        [
            Value::str(&format!("capital-{i}")),
            Value::Int(rng.gen_range(1_000..5_000_000)),
            Value::Ref(Oid::new(ids.person, rng.gen_range(0..n_person) as u32)),
            Value::Ref(Oid::new(ids.country, (i % n_country) as u32)),
            Value::Date(Date::from_ymd(rng.gen_range(1800..1993), 1, 1)),
        ]
    });
    store.insert_columns(ids.capital, n_capital as usize, capitals, 400)?;

    // --- Jobs -------------------------------------------------------------
    let n_job = card(ids.job_extent);
    let jobs = columns(n_job, |i| {
        [
            Value::str(&format!("job-{i}")),
            Value::Int(rng.gen_range(1..16)),
        ]
    });
    store.insert_columns(ids.job, n_job as usize, jobs, 250)?;

    // --- Departments -------------------------------------------------------
    let n_dept = card(ids.department_extent);
    let depts = columns(n_dept, |i| {
        [
            Value::str(&format!("dept-{i}")),
            Value::Int(rng.gen_range(1..=10)),
            Value::Ref(Oid::new(ids.plant, rng.gen_range(0..n_plant) as u32)),
        ]
    });
    store.insert_columns(ids.department, n_dept as usize, depts, 400)?;

    // --- Employees ----------------------------------------------------------
    // Layout (Person fields first): name, age, salary, last_raise, dept, job.
    let n_emp_extent = card(ids.employee_extent);
    let n_emp_set = card(ids.employees);
    let emps = columns(n_emp_extent, |i| {
        // The hot-key draw only happens when the knob is on, so the
        // default configuration's RNG stream (and thus every
        // deterministic fixture built on it) is bit-identical to
        // before the knob existed.
        let name = if i < n_emp_set {
            if cfg.hot_employee_name_fraction > 0.0
                && rng.gen_bool(cfg.hot_employee_name_fraction.clamp(0.0, 1.0))
            {
                Value::Str(employee_names[0].clone())
            } else {
                pick(&mut rng, &employee_names)
            }
        } else {
            pick(&mut rng, &person_names)
        };
        [
            name,
            Value::Int(rng.gen_range(18..70)),
            Value::Int(rng.gen_range(20_000..150_000)),
            Value::Date(Date::from_ymd(
                rng.gen_range(1988..1994),
                rng.gen_range(1..=12),
                1,
            )),
            Value::Ref(Oid::new(ids.department, rng.gen_range(0..n_dept) as u32)),
            Value::Ref(Oid::new(ids.job, rng.gen_range(0..n_job) as u32)),
        ]
    });
    store.insert_columns(ids.employee, n_emp_extent as usize, emps, 250)?;

    // --- Tasks -----------------------------------------------------------------
    let n_task_extent = card(ids.task_extent);
    let avg_team = AVG_TEAM_MEMBERS as usize;
    let tasks = columns(n_task_extent, |i| {
        let k = rng.gen_range(1..=2 * avg_team); // mean = avg_team + 0.5
        let mut team: Vec<Oid> = (0..k)
            .map(|_| Oid::new(ids.employee, rng.gen_range(0..n_emp_set) as u32))
            .collect();
        team.sort_unstable();
        team.dedup();
        [
            Value::str(&format!("task-{i}")),
            Value::Int(times[rng.gen_range(0..times.len())]),
            Value::RefSet(team.into()),
        ]
    });
    store.insert_columns(ids.task, n_task_extent as usize, tasks, 120)?;

    // --- Collection membership (dense prefixes) ----------------------------------
    let dense =
        |ty: TypeId, n: u64| -> Vec<Oid> { (0..n).map(|i| Oid::new(ty, i as u32)).collect() };
    store.set_members(ids.capitals, dense(ids.capital, n_capital))?;
    store.set_members(ids.cities, dense(ids.city, n_city))?;
    store.set_members(ids.employees, dense(ids.employee, n_emp_set))?;
    store.set_members(ids.tasks, dense(ids.task, card(ids.tasks)))?;
    store.set_members(ids.country_extent, dense(ids.country, n_country))?;
    store.set_members(ids.department_extent, dense(ids.department, n_dept))?;
    store.set_members(ids.employee_extent, dense(ids.employee, n_emp_extent))?;
    store.set_members(ids.information_extent, dense(ids.information, n_info))?;
    store.set_members(ids.job_extent, dense(ids.job, n_job))?;
    store.set_members(ids.person_extent, dense(ids.person, n_person))?;
    store.set_members(ids.task_extent, dense(ids.task, n_task_extent))?;

    store.try_rebuild_indexes(true)?;
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_db_matches_scaled_catalog() {
        let (store, model) = generate_paper_db(GenConfig::small());
        for (id, def) in model.catalog.collections() {
            assert_eq!(
                store.members(id).len() as u64,
                def.cardinality,
                "collection {} population mismatch",
                def.name
            );
        }
    }

    #[test]
    fn references_resolve() {
        let (store, model) = generate_paper_db(GenConfig::small());
        let ids = &model.ids;
        for &oid in store.members(ids.employees) {
            let dept = store.read_field(oid, ids.emp_dept).as_ref_oid().unwrap();
            assert_eq!(dept.type_id(), ids.department);
            // Dereference must not panic and must land on a real object.
            let floor = store.read_field(dept, ids.dept_floor);
            assert!(matches!(floor, Value::Int(1..=10)));
        }
    }

    #[test]
    fn path_index_agrees_with_traversal() {
        let (store, model) = generate_paper_db(GenConfig::small());
        let ids = &model.ids;
        let idx = store.index(ids.idx_cities_mayor_name);
        // Every indexed hit must satisfy the path predicate...
        for &oid in store.members(ids.cities) {
            let name = store.try_eval_path(oid, &[ids.city_mayor], ids.person_name);
            let name = name.unwrap();
            let hits = idx.lookup_cmp(oodb_object::value::CmpLike::Eq, &name);
            assert!(hits.contains(&oid));
        }
        // ...and total entries equal the set cardinality.
        assert_eq!(idx.entries(), store.members(ids.cities).len() as u64);
    }

    #[test]
    fn fred_selectivity_is_plausible() {
        let (store, model) = generate_paper_db(GenConfig::small());
        let ids = &model.ids;
        let freds = store
            .index(ids.idx_employees_name)
            .lookup_cmp(oodb_object::value::CmpLike::Eq, &Value::str("Fred"))
            .len() as f64;
        let total = store.members(ids.employees).len() as f64;
        // 100 distinct names → ≈1% Freds; allow generous statistical slack.
        assert!(
            freds / total > 0.002 && freds / total < 0.05,
            "{freds}/{total}"
        );
    }

    #[test]
    fn hot_name_knob_skews_the_employee_set() {
        let (store, model) = generate_paper_db(GenConfig {
            scale_div: 100,
            hot_employee_name_fraction: 0.5,
            ..Default::default()
        });
        let ids = &model.ids;
        let freds = store
            .index(ids.idx_employees_name)
            .lookup_cmp(oodb_object::value::CmpLike::Eq, &Value::str("Fred"))
            .len() as f64;
        let total = store.members(ids.employees).len() as f64;
        // ≈50% forced + ≈1% from the uniform pool; the catalog's
        // distinct-keys statistic still claims ≈1%, which is the point.
        assert!(freds / total > 0.4, "{freds}/{total}");
        assert!(freds / total < 0.65, "{freds}/{total}");
    }

    #[test]
    fn dallas_department_fraction_near_ten_percent() {
        // 1/10 scale: 100 departments over 20 plants — enough mass for the
        // 10%-of-locations expectation to show through.
        let (store, model) = generate_paper_db(GenConfig {
            scale_div: 10,
            ..Default::default()
        });
        let ids = &model.ids;
        let n = store
            .members(ids.department_extent)
            .iter()
            .filter(|&&d| {
                store.try_eval_path(d, &[ids.dept_plant], ids.plant_location)
                    == Ok(Value::str("Dallas"))
            })
            .count() as f64;
        let total = store.members(ids.department_extent).len() as f64;
        assert!(n / total > 0.01 && n / total < 0.4, "{n}/{total}");
    }

    #[test]
    fn generation_is_deterministic() {
        let (a, _) = generate_paper_db(GenConfig::small());
        let (b, _) = generate_paper_db(GenConfig::small());
        let ids = paper_model_scaled(100).ids;
        assert_eq!(a.columns_of(ids.city), b.columns_of(ids.city));
    }

    #[test]
    fn task_teams_reference_set_members() {
        let (store, model) = generate_paper_db(GenConfig::small());
        let ids = &model.ids;
        let set_size = store.members(ids.employees).len() as u32;
        for &t in store.members(ids.tasks) {
            let team = store.read_field(t, ids.task_team_members);
            let team = team.as_ref_set().unwrap();
            assert!(!team.is_empty());
            for m in team {
                assert!(m.seq() < set_size, "team member outside Employees set");
            }
        }
    }
}
