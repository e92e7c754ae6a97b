//! One repetition of a workload with tracing off: the closed loop each
//! client runs, the answer check, and — on `mixed_refresh` — the logged
//! mutations beside the queries and the recovery check after them.

use crate::env::process_cpu_seconds;
use crate::fixture::{
    new_service, Fixture, Kind, Query, CHECKPOINT_AFTER_MUTATION, REFRESH_EVERY, STATISTICS_BUCKETS,
};
use crate::reference::answer_matches;
use crate::speed::Speed;
use crate::stats::percentile;
use open_oodb::prelude::*;
use open_oodb::server::{Client, RequestOptions};
use open_oodb::service::{DurabilityStats, QueryOutput};
use open_oodb::wal::store_digest;
use std::path::Path;
use std::time::Instant;

/// How thoroughly a repetition checks answers.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Every row against the reference (warm-up and traced repetitions).
    Rows,
    /// Row count against the reference (timed repetitions; O(1)).
    Count,
}

/// What one repetition measured, as the clock read it, and the divisor
/// that turns those readings into reference time (see `speed.rs`).
#[derive(Clone, Default)]
pub struct Rep {
    /// Seconds the repetition took, calibration kernels left out.
    pub raw_wall_s: f64,
    /// How much slower than on the reference machine the calibration
    /// kernel ran during the repetition.
    pub slowdown: f64,
    /// Process CPU seconds over the repetition, kernels left out.
    pub raw_cpu_s: f64,
    /// Client-observed latency of every query, ascending.
    pub raw_query_ns: Vec<u64>,
    /// `mixed_refresh`: every `refresh_statistics` call, from the call to
    /// the acknowledgement that it is on disk, ascending.
    pub raw_mutation_ns: Vec<u64>,
    /// `mixed_refresh`: bytes the log and the checkpoint took in.
    pub wal_bytes: u64,
    /// `mixed_refresh`: seconds recovering the copied directory took.
    pub raw_recover_s: f64,
    /// Σ `QueryOutput.sim_io_s` of the in-process answers.
    pub sim_io_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Rep {
    /// The same readings with no calibration applied.
    pub fn raw(&self) -> Rep {
        Rep {
            slowdown: 1.0,
            ..self.clone()
        }
    }

    pub fn ops(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn queries(&self) -> u64 {
        self.raw_query_ns.len() as u64
    }

    pub fn mutations(&self) -> u64 {
        self.raw_mutation_ns.len() as u64
    }

    pub fn wall_s(&self) -> f64 {
        self.raw_wall_s / self.slowdown
    }

    pub fn throughput(&self) -> f64 {
        self.ops() as f64 / self.wall_s()
    }

    pub fn query_us(&self, p: f64) -> f64 {
        percentile(&self.raw_query_ns, p) as f64 / 1e3 / self.slowdown
    }

    pub fn mutation_us(&self, p: f64) -> f64 {
        percentile(&self.raw_mutation_ns, p) as f64 / 1e3 / self.slowdown
    }

    pub fn recover_s(&self) -> f64 {
        self.raw_recover_s / self.slowdown
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        self.raw_cpu_s * 1e6 / self.slowdown / self.ops().max(1) as f64
    }
}

fn rows_to_check(check: Check, rows: &[String]) -> Option<&[String]> {
    (check == Check::Rows).then_some(rows)
}

/// The service's answer to `q`, if it gave one and it is the reference's.
pub fn submit_checked(svc: &QueryService, q: &Query, check: Check) -> Option<QueryOutput> {
    svc.submit_with(&q.text, SubmitOptions::default())
        .ok()
        .filter(|out| answer_matches(&q.expected, rows_to_check(check, &out.rows), out.row_count))
}

pub fn wire_ok(client: &mut Client, q: &Query, check: Check) -> bool {
    match client.query(&q.text, RequestOptions::default()) {
        Ok(out) => answer_matches(
            &q.expected,
            rows_to_check(check, &out.rows),
            out.row_count as usize,
        ),
        Err(_) => false,
    }
}

/// Between repetitions of `cold_adhoc`, outside the timed window: the
/// service forgets every plan and every drift observation, so each
/// repetition meets the same never-seen texts.
pub fn forget(fx: &Fixture) {
    if fx.spec.kind == Kind::ColdAdhoc {
        fx.svc.cache().clear();
        fx.svc.feedback().clear();
    }
}

/// Whether the `done`-th query of a `mixed_refresh` repetition is
/// followed by a refresh, and that refresh by the checkpoint.
pub fn mutation_due(kind: Kind, done: usize) -> Option<bool> {
    (kind == Kind::MixedRefresh && done.is_multiple_of(REFRESH_EVERY))
        .then_some(done / REFRESH_EVERY == CHECKPOINT_AFTER_MUTATION)
}

/// What the service's logs took in over one repetition: the old log up to
/// the checkpoint (less what it held when the repetition began) plus the
/// fresh log the checkpoint started.
pub struct LogGrowth {
    pub records: u64,
    pub bytes: u64,
    pub syncs: u64,
}

pub fn log_growth(
    start: &DurabilityStats,
    before_checkpoint: &DurabilityStats,
    end: &DurabilityStats,
) -> LogGrowth {
    LogGrowth {
        records: before_checkpoint.records - start.records + end.records,
        bytes: before_checkpoint.bytes - start.bytes + end.bytes,
        syncs: before_checkpoint.syncs - start.syncs + end.syncs,
    }
}

pub fn run_rep(fx: &mut Fixture, queries: &[Query], streams: &[Vec<usize>], check: Check) -> Rep {
    forget(fx);
    let mut rep = match fx.spec.kind {
        Kind::WirePoint => wire_rep(&mut fx.clients, queries, streams, check),
        _ => in_process_rep(fx, queries, &streams[0], check),
    };
    rep.raw_query_ns.sort_unstable();
    rep.raw_mutation_ns.sort_unstable();
    rep
}

fn in_process_rep(fx: &Fixture, queries: &[Query], stream: &[usize], check: Check) -> Rep {
    let calibrate_every = fx
        .spec
        .calibrate_every
        .expect("in-process workloads are calibrated");
    let mut rep = Rep {
        raw_query_ns: Vec::with_capacity(stream.len()),
        ..Default::default()
    };
    let log_start = fx.svc.durability_stats();
    let mut log_before_checkpoint = None;
    let mut speed = Speed::default();
    let (wall, cpu) = (Instant::now(), process_cpu_seconds());
    for (n, &i) in stream.iter().enumerate() {
        if n.is_multiple_of(calibrate_every) {
            speed.tick();
        }
        let t = Instant::now();
        let out = submit_checked(&fx.svc, &queries[i], check);
        rep.raw_query_ns.push(t.elapsed().as_nanos() as u64);
        rep.attempted += 1;
        match out {
            Some(out) => rep.sim_io_s += out.sim_io_s,
            None => rep.failed += 1,
        }
        let Some(checkpoint) = mutation_due(fx.spec.kind, n + 1) else {
            continue;
        };
        let t = Instant::now();
        fx.svc.refresh_statistics(STATISTICS_BUCKETS);
        rep.raw_mutation_ns.push(t.elapsed().as_nanos() as u64);
        rep.attempted += 1;
        if checkpoint {
            log_before_checkpoint = fx.svc.durability_stats();
            match fx.svc.checkpoint_wal() {
                Some(Ok(stats)) => rep.wal_bytes += stats.bytes,
                _ => rep.failed += 1,
            }
        }
    }
    speed.tick();
    rep.raw_wall_s = wall.elapsed().as_secs_f64() - speed.spent_s();
    rep.raw_cpu_s = process_cpu_seconds() - cpu - speed.spent_s();
    rep.slowdown = speed.slowdown();
    if let (Some(start), Some(mid), Some(end)) =
        (log_start, log_before_checkpoint, fx.svc.durability_stats())
    {
        rep.wal_bytes += log_growth(&start, &mid, &end).bytes;
    }
    rep
}

/// Kernel runs on either side of a repetition whose clients run on
/// threads of their own (`wire_point`), where none can run in between.
pub const KERNELS_AROUND_REP: usize = 3;

fn wire_rep(
    clients: &mut [Client],
    queries: &[Query],
    streams: &[Vec<usize>],
    check: Check,
) -> Rep {
    let mut speed = Speed::default();
    (0..KERNELS_AROUND_REP).for_each(|_| speed.tick());
    let (wall, cpu) = (Instant::now(), process_cpu_seconds());
    let per_client: Vec<(Vec<u64>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams)
            .map(|(client, stream)| {
                s.spawn(move || {
                    let mut ns = Vec::with_capacity(stream.len());
                    let mut failed = 0;
                    for &i in stream {
                        let t = Instant::now();
                        let ok = wire_ok(client, &queries[i], check);
                        ns.push(t.elapsed().as_nanos() as u64);
                        failed += u64::from(!ok);
                    }
                    (ns, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let (raw_wall_s, raw_cpu_s) = (wall.elapsed().as_secs_f64(), process_cpu_seconds() - cpu);
    (0..KERNELS_AROUND_REP).for_each(|_| speed.tick());
    let mut rep = Rep {
        raw_wall_s,
        raw_cpu_s,
        slowdown: speed.slowdown(),
        ..Default::default()
    };
    for (ns, failed) in per_client {
        rep.attempted += ns.len() as u64;
        rep.failed += failed;
        rep.raw_query_ns.extend(ns);
    }
    rep
}

/// What recovering a copy of the durability directory found.
pub struct Recovery {
    pub started: Instant,
    pub recover_ns: u64,
    pub replayed_records: u64,
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// After a `mixed_refresh` repetition: flush, copy the directory as a
/// crash would leave it, recover the copy, and compare it with the live
/// service: the same store digest, and the reference's answers to the
/// four canonical queries. An error means acknowledged mutations did not
/// survive.
pub fn check_recovery(fx: &Fixture, queries: &[Query]) -> Result<Recovery, String> {
    let dir = fx.wal_dir.as_ref().ok_or("no durability directory")?;
    if let Some(Err(e)) = fx.svc.flush_wal() {
        return Err(format!("flush_wal: {e}"));
    }
    let copy = dir.with_extension("copy");
    copy_dir(dir, &copy).map_err(|e| format!("copying {}: {e}", dir.display()))?;
    let started = Instant::now();
    let recovered = open_oodb::wal::recover(&copy);
    let recover_ns = started.elapsed().as_nanos() as u64;
    let _ = std::fs::remove_dir_all(&copy);
    let (store, report) = recovered.map_err(|e| format!("recover: {e}"))?;

    let mut matches = store_digest(&store) == store_digest(&fx.svc.store());
    // Rank 0, 10, 26 and 42 of the replay pool are the canonical Q1-Q4.
    // The recovered store must give the reference's rows, which every
    // answer of the live service was checked against during the repetition.
    let revived = new_service(store);
    for q in [0, 10, 26, 42].map(|i| &queries[i]) {
        matches &= submit_checked(&revived, q, Check::Rows).is_some();
    }
    if !matches {
        return Err("the recovered store differs from the live one".to_string());
    }
    Ok(Recovery {
        started,
        recover_ns,
        replayed_records: report.replayed_records,
    })
}
