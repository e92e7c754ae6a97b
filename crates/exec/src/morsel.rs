//! Morsel-driven parallel dispatch for a pipeline's pure-CPU segment.
//!
//! A pipeline's source (a scan, or a materialised operator's output) does
//! I/O against the per-run [`crate::engine::Executor`] accounting and
//! stays serial. Everything downstream of it — filters, unnests, the
//! probe of an in-memory hash join, the root projection — is a pure
//! function of a batch and shared immutable state. The pipeline driver
//! hands the source's batches here, one batch per *morsel* (à la HyPer's
//! morsel-driven parallelism), to run on a scoped worker set:
//!
//! * Workers claim batch indexes from one atomic counter — no work
//!   queue, no channel, no per-row synchronization.
//! * Each worker accumulates its own [`OpCounts`]; the dispatcher merges
//!   counts once and returns outputs **in batch order**, so a parallel
//!   run produces byte-identical results to the serial path.
//! * The run's [`RunLimits`] (cancel flag, deadline) are re-checked at
//!   every claim — the same batch-boundary granularity the serial driver
//!   has. Row budgets are enforced by the caller right after the merge,
//!   against the merged counts.
//! * Memory-grant accounting is untouched: the hash-join build reserves
//!   its bytes before the pipeline runs.

use crate::engine::{ExecError, OpCounts};
use oodb_fault::RunLimits;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Pipelines whose source yields fewer rows run serially even when
/// parallelism is enabled: two thread spawns cost more than evaluating a
/// few thousand predicate terms.
pub const MIN_PARALLEL_ROWS: usize = 4096;

/// Checks the cancel flag and deadline — the subset of [`RunLimits`] a
/// worker can evaluate without the executor's mutable counters.
pub(crate) fn check_limits(limits: &RunLimits) -> Result<(), ExecError> {
    if let Some(c) = &limits.cancel {
        if c.is_cancelled() {
            return Err(ExecError::Cancelled);
        }
    }
    if let Some(d) = limits.deadline {
        if Instant::now() >= d {
            return Err(ExecError::DeadlineExceeded);
        }
    }
    Ok(())
}

/// Runs `work` over every batch on up to `workers` threads, returning the
/// outputs in batch order and the merged operation counts.
///
/// `work` receives one owned batch plus the worker's private counts; it
/// must be a pure function of those and of captured shared state
/// (`&Store`, resolved predicates, a built hash table). The first error —
/// by batch index, so failure is deterministic — aborts the dispatch:
/// other workers stop at their next claim. A panicking worker propagates
/// its panic to the caller after the scope joins.
pub(crate) fn dispatch<B, T, F>(
    workers: usize,
    limits: &RunLimits,
    batches: Vec<B>,
    work: F,
) -> Result<(Vec<T>, OpCounts), ExecError>
where
    B: Send,
    T: Send,
    F: Fn(B, &mut OpCounts) -> Result<T, ExecError> + Sync,
{
    let slots: Vec<Mutex<Option<B>>> = batches.into_iter().map(|b| Mutex::new(Some(b))).collect();
    let n_threads = workers.clamp(1, slots.len().max(1));
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);

    // (merged counts, completed batches, first failure) per worker.
    type WorkerYield<T> = (OpCounts, Vec<(usize, T)>, Option<(usize, ExecError)>);
    let worker = || -> WorkerYield<T> {
        let mut counts = OpCounts::default();
        let mut produced: Vec<(usize, T)> = Vec::new();
        let mut failure = None;
        while !abort.load(Ordering::Relaxed) {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            if idx >= slots.len() {
                break;
            }
            let batch = slots[idx]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .expect("batch index claimed twice");
            match check_limits(limits).and_then(|()| work(batch, &mut counts)) {
                Ok(out) => produced.push((idx, out)),
                Err(e) => {
                    failure = Some((idx, e));
                    abort.store(true, Ordering::Relaxed);
                }
            }
        }
        (counts, produced, failure)
    };

    let yields: Vec<std::thread::Result<WorkerYield<T>>> = if n_threads <= 1 {
        vec![Ok(worker())]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n_threads).map(|_| s.spawn(worker)).collect();
            handles.into_iter().map(|h| h.join()).collect()
        })
    };

    let mut counts = OpCounts::default();
    let mut first_failure: Option<(usize, ExecError)> = None;
    let mut outs: Vec<Option<T>> = (0..slots.len()).map(|_| None).collect();
    for y in yields {
        let (c, produced, failure) = match y {
            Ok(y) => y,
            Err(panic) => std::panic::resume_unwind(panic),
        };
        counts.add(&c);
        for (idx, out) in produced {
            outs[idx] = Some(out);
        }
        if let Some((idx, e)) = failure {
            if first_failure.as_ref().is_none_or(|(i, _)| idx < *i) {
                first_failure = Some((idx, e));
            }
        }
    }
    if let Some((_, e)) = first_failure {
        return Err(e);
    }
    Ok((
        outs.into_iter()
            .map(|o| o.expect("no failure reported but a batch is missing"))
            .collect(),
        counts,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_fault::CancelToken;

    fn batches(rows: u64, per: u64) -> Vec<Vec<u64>> {
        (0..rows.div_ceil(per))
            .map(|b| (b * per..((b + 1) * per).min(rows)).collect())
            .collect()
    }

    #[test]
    fn outputs_come_back_in_batch_order() {
        let input = batches(10_000, 1024);
        let (out, counts) = dispatch(4, &RunLimits::default(), input, |b, c| {
            c.tuples += b.len() as u64;
            Ok(b.into_iter()
                .filter(|x| x % 3 == 0)
                .map(|x| x * 2)
                .collect::<Vec<_>>())
        })
        .unwrap();
        let expect: Vec<u64> = (0..10_000).filter(|x| x % 3 == 0).map(|x| x * 2).collect();
        assert_eq!(out.concat(), expect);
        assert_eq!(counts.tuples, 10_000);
    }

    #[test]
    fn single_batch_and_empty_inputs_work() {
        let (out, _) = dispatch(8, &RunLimits::default(), vec![7u32], |x, _| Ok(x + 1)).unwrap();
        assert_eq!(out, vec![8]);
        let (out, _) = dispatch(8, &RunLimits::default(), Vec::<u32>::new(), |x, _| Ok(x)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn cancellation_is_observed_at_batch_boundaries() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let limits = RunLimits {
            cancel: Some(cancel),
            ..RunLimits::default()
        };
        let err = dispatch(4, &limits, batches(50_000, 1024), |b, _| Ok(b)).unwrap_err();
        assert_eq!(err, ExecError::Cancelled);
    }

    #[test]
    fn first_error_by_batch_index_wins() {
        let err = dispatch(4, &RunLimits::default(), batches(20_000, 1024), |b, _| {
            // Rows 5000.. fail with a budget error, row 100 with a
            // malformed-plan error; the lowest failing *batch* holds row
            // 100, so that error must be the one reported.
            if b.contains(&100) {
                Err(ExecError::MalformedPlan("row 100".into()))
            } else if b.iter().any(|&x| x >= 5000) {
                Err(ExecError::RowBudgetExceeded { budget: 1 })
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err, ExecError::MalformedPlan("row 100".into()));
    }

    #[test]
    fn counts_merge_across_workers() {
        let (_, counts) = dispatch(8, &RunLimits::default(), batches(30_000, 1024), |b, c| {
            c.preds += 2 * b.len() as u64;
            c.hash_ops += b.len() as u64;
            Ok(())
        })
        .unwrap();
        assert_eq!(counts.preds, 60_000);
        assert_eq!(counts.hash_ops, 30_000);
    }
}
