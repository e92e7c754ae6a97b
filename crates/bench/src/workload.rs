//! Shared replay-workload helpers for the service-level benches
//! (`plancache`, `scaling`, `memlimit`, `server`): the ZQL query pool
//! built from the paper's four shapes, a Zipf sampler for skewed
//! replay, the percentile picker the latency reports use, and the
//! N-concurrent-submitters driver.

use oodb_service::{QueryOutput, QueryService, ServiceError, SubmitOptions};
use rand::rngs::SmallRng;
use rand::Rng;

/// Runs jobs `0..n` against one shared service from `threads` concurrent
/// submitters — thread `t` takes jobs `t, t + threads, …` in order — and
/// returns the replies in job order. `job(i)` names job `i`'s query.
pub fn submit_concurrently<'q>(
    service: &QueryService,
    threads: usize,
    n: usize,
    job: impl Fn(usize) -> (&'q str, SubmitOptions) + Sync,
) -> Vec<Result<QueryOutput, ServiceError>> {
    let (threads, job) = (threads.max(1), &job);
    let mut strided: Vec<_> = std::thread::scope(|s| {
        let submitters: Vec<_> = (0..threads)
            .map(|t| {
                let mine = (t..n).step_by(threads).map(job);
                s.spawn(move || -> Vec<_> {
                    mine.map(|(q, opts)| service.submit_with(q, opts)).collect()
                })
            })
            .collect();
        let joined = submitters
            .into_iter()
            .map(|h| h.join().expect("submitter panicked"));
        joined.map(Vec::into_iter).collect()
    });
    (0..n)
        .map(|i| strided[i % threads].next().expect("every job ran"))
        .collect()
}

/// The distinct query pool: the paper's four query shapes, each with a
/// spread of constants drawn from the generator's value pools.
/// `locations`/`mayors`/`times` size the constant spread per shape
/// (the Q2 and Q3 families share the mayor pool).
pub fn paper_query_pool(locations: usize, mayors: usize, times: usize) -> Vec<String> {
    let mut pool = Vec::new();
    // Q1: the Dallas report — path-expression join chain.
    let mut locs = vec!["Dallas".to_string()];
    locs.extend((1..locations).map(|i| format!("loc{i:05}")));
    for loc in locs {
        pool.push(format!(
            "SELECT Newobject(e.name(), e.job().name(), e.dept().name()) \
             FROM Employee e IN Employees \
             WHERE e.dept().plant().location() == \"{loc}\""
        ));
    }
    // Q2: mayor-name selection (collapses to one path-index scan).
    let mut names = vec!["Joe".to_string()];
    names.extend((1..mayors).map(|i| format!("p{i:05}")));
    for name in &names {
        pool.push(format!(
            "SELECT c FROM City c IN Cities WHERE c.mayor().name() == \"{name}\""
        ));
    }
    // Q3: projection needing the mayor in memory (assembly enforcer).
    for name in &names {
        pool.push(format!(
            "SELECT Newobject(c.mayor().age(), c.name()) \
             FROM City c IN Cities WHERE c.mayor().name() == \"{name}\""
        ));
    }
    // Q4: set-valued path with EXISTS (unnest + mat).
    for t in (1..=times).map(|i| i * 10) {
        pool.push(format!(
            "SELECT t FROM Task t IN Tasks WHERE t.time() == {t} \
             && EXISTS (SELECT m FROM m IN t.team_members() WHERE m.name() == \"Fred\")"
        ));
    }
    pool
}

/// One canonical representative per shape (the warm-cache Q1–Q4 set
/// overhead comparisons run against).
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

/// Zipf(s) sampler over `n` ranks via inverse CDF on a cumulative table.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Builds the cumulative table for ranks `1..=n` with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cumulative.push(total);
        }
        Zipf { cumulative }
    }

    /// Draws one rank in `0..n`.
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let total = *self.cumulative.last().unwrap();
        let u = rng.gen_range(0.0..total);
        self.cumulative.partition_point(|&c| c < u)
    }
}

/// Nearest-rank percentile over an already-sorted sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}
