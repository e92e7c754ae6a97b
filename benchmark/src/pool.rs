//! The queries the workloads send: a frozen copy of the 58-text Q1–Q4
//! replay pool, the 32 point lookups, and the never-seen ad-hoc stream.
//!
//! Each query is a [`Shape`] — which of the paper's query forms it is and
//! with which constants — so the program under test gets the rendered ZQL
//! text while the reference evaluator works from the shape alone and never
//! touches the parser.

use crate::stats::SplitMix64;

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Query 1 (Figure 5): employees of departments whose plant is in
    /// `location`, projected to (name, job name, department name).
    Q1 { location: String },
    /// Query 2 (Figure 8): cities whose mayor is called `mayor`.
    Q2 { mayor: String },
    /// Query 3 (Figure 10): Query 2 projected to (mayor age, city name).
    Q3 { mayor: String },
    /// Query 4 (Figure 12): tasks taking `time` hours with a team member
    /// called `member`.
    Q4 { time: i64, member: String },
    /// Figure 2's two-branch path (mayor and president share a name) with
    /// one added constant conjunct on the city's population.
    Fig2 { min_population: i64 },
}

impl Shape {
    /// The ZQL text submitted to the program under test.
    pub fn text(&self) -> String {
        match self {
            Shape::Q1 { location } => format!(
                "SELECT Newobject(e.name(), e.job().name(), e.dept().name()) \
                 FROM Employee e IN Employees \
                 WHERE e.dept().plant().location() == \"{location}\""
            ),
            Shape::Q2 { mayor } => {
                format!("SELECT c FROM City c IN Cities WHERE c.mayor().name() == \"{mayor}\"")
            }
            Shape::Q3 { mayor } => format!(
                "SELECT Newobject(c.mayor().age(), c.name()) \
                 FROM City c IN Cities WHERE c.mayor().name() == \"{mayor}\""
            ),
            Shape::Q4 { time, member } => format!(
                "SELECT t FROM Task t IN Tasks WHERE t.time() == {time} \
                 && EXISTS (SELECT m FROM m IN t.team_members() WHERE m.name() == \"{member}\")"
            ),
            Shape::Fig2 { min_population } => format!(
                "SELECT c FROM City c IN Cities \
                 WHERE c.mayor().name() == c.country().president().name() \
                 && c.population() > {min_population}"
            ),
        }
    }
}

fn mayor_names(n: usize) -> impl Iterator<Item = String> {
    std::iter::once("Joe".to_string()).chain((1..n).map(|i| format!("p{i:05}")))
}

/// The Q1–Q4 replay pool, in popularity order (rank 0 is the hottest):
/// 10 Q1 locations, 16 Q2 and 16 Q3 mayor names, 16 Q4 times. Text for
/// text what `oodb_bench::workload::paper_query_pool(10, 16, 16)` built
/// when this benchmark was defined.
pub fn replay_pool() -> Vec<Shape> {
    let mut pool = vec![Shape::Q1 {
        location: "Dallas".to_string(),
    }];
    pool.extend((1..10).map(|i| Shape::Q1 {
        location: format!("loc{i:05}"),
    }));
    pool.extend(mayor_names(16).map(|mayor| Shape::Q2 { mayor }));
    pool.extend(mayor_names(16).map(|mayor| Shape::Q3 { mayor }));
    pool.extend((1..=16).map(|i| Shape::Q4 {
        time: i * 10,
        member: "Fred".to_string(),
    }));
    pool
}

/// The wire workload's pool: the 16 Q2 and 16 Q3 texts of the replay
/// pool — the path-index plans of Figures 8 and 10, a few rows each.
pub fn point_pool() -> Vec<Shape> {
    replay_pool()
        .into_iter()
        .filter(|s| matches!(s, Shape::Q2 { .. } | Shape::Q3 { .. }))
        .collect()
}

/// `len` queries nobody has sent before: the five shapes round-robin,
/// each with constants counting up from a seeded base, so every text —
/// and every canonical fingerprint — in the stream is distinct.
pub fn adhoc_stream(seed: u64, len: usize) -> Vec<Shape> {
    let mut rng = SplitMix64::new(seed);
    let mut base = || 20 + rng.below(50_000) as i64;
    let (loc, mayor2, mayor3, time) = (base(), base(), base(), base());
    let population = 1_000_000 + rng.below(2_000_000) as i64;
    (0..len)
        .map(|i| {
            let k = (i / 5) as i64;
            match i % 5 {
                0 => Shape::Q1 {
                    location: format!("loc{:05}", loc + k),
                },
                1 => Shape::Q2 {
                    mayor: format!("p{:05}", mayor2 + k),
                },
                2 => Shape::Q3 {
                    mayor: format!("p{:05}", mayor3 + k),
                },
                3 => Shape::Q4 {
                    time: time + k,
                    member: "Fred".to_string(),
                },
                _ => Shape::Fig2 {
                    min_population: population + 997 * k,
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use open_oodb::algebra::fingerprint::fingerprint;
    use open_oodb::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn pools_have_the_frozen_sizes() {
        let pool = replay_pool();
        assert_eq!(pool.len(), 58);
        assert_eq!(point_pool().len(), 32);
        let texts: HashSet<String> = pool.iter().map(Shape::text).collect();
        assert_eq!(texts.len(), 58);
        assert_eq!(
            pool[0].text(),
            "SELECT Newobject(e.name(), e.job().name(), e.dept().name()) \
             FROM Employee e IN Employees \
             WHERE e.dept().plant().location() == \"Dallas\""
        );
    }

    #[test]
    fn adhoc_stream_is_seeded_and_fingerprint_distinct() {
        let stream = adhoc_stream(0x00DB_1993, 1500);
        assert_eq!(stream, adhoc_stream(0x00DB_1993, 1500));
        assert_ne!(stream, adhoc_stream(1, 1500));
        let m = paper_model_scaled(100);
        let hashes: HashSet<u64> = stream
            .iter()
            .map(|s| {
                let q = open_oodb::zql::compile(&s.text(), &m.schema, &m.catalog)
                    .unwrap_or_else(|e| panic!("{}: {e}", s.text()));
                fingerprint(&q.env, &q.plan, q.result_vars, q.order.as_ref()).hash
            })
            .collect();
        assert_eq!(hashes.len(), stream.len());
    }
}
