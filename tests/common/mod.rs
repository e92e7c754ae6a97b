//! Helpers shared by more than one root test.

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
