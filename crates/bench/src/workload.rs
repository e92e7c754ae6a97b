//! Service-level workload helpers shared by the root tests and the
//! criterion benches: the N-concurrent-submitters driver and the
//! canonical Q1–Q4 ZQL texts.

use oodb_service::{QueryOutput, QueryService, ServiceError, SubmitOptions};

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

/// One canonical representative per paper query shape (Q1–Q4), every
/// constant present in the generated data.
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
