//! From a traced run's spans and sums to the per-layer metrics, and the
//! gates that check the decomposition against the request it decomposes.

use crate::fixture::Kind;
use crate::layers::{Sum, Tally, OP_KINDS};
use crate::stats::{median, percentile, ratio};
use crate::trace::{durations, Span};

/// Everything a traced run measured.
pub struct TracedRun {
    pub kind: Kind,
    /// Spans of every traced repetition.
    pub spans: Vec<Span>,
    /// Sums of the first traced repetition: the exact counts come from
    /// here, so they do not depend on how many repetitions fitted.
    pub first: Tally,
    /// Sums over every traced repetition: the clock ratios come from here.
    pub all: Tally,
    pub untraced_wall_s: Vec<f64>,
    pub untraced_throughput: Vec<f64>,
    pub traced_wall_s: Vec<f64>,
    pub datagen_s: f64,
}

fn p_us(spans: &[Span], name: &str, p: f64) -> f64 {
    let mut ns = durations(spans, name);
    ns.sort_unstable();
    percentile(&ns, p) as f64 / 1e3
}

fn p50_signed_us(values: &[i64]) -> f64 {
    let as_f64: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    median(&as_f64) / 1e3
}

fn sum(values: &[i64]) -> f64 {
    values.iter().sum::<i64>() as f64
}

/// (max − min) ÷ median: how far apart repetitions of the same work ran.
fn range_over_median(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if values.is_empty() {
        0.0
    } else {
        ratio(hi - lo, median(values))
    }
}

/// Every per-layer metric, in catalogue order.
pub fn per_layer_values(run: &TracedRun) -> Vec<(String, f64)> {
    let (first, all, spans) = (&run.first, &run.all, &run.spans);
    let p50 = |name| p_us(spans, name, 0.50);
    let p99 = |name| p_us(spans, name, 0.99);
    let n = |s: Sum| first[s] as f64;
    let per_op = |s: Sum| ratio(n(s), n(Sum::Ops));
    let per_search = |s: Sum| ratio(n(s), n(Sum::Searches));
    let clock = |s: Sum| all[s] as f64;

    let mut out: Vec<(String, f64)> = Vec::with_capacity(70);
    let mut put = |name: &str, value: f64| out.push((name.to_string(), value));
    put("zql.parse_us", p50("zql.parse"));
    put("zql.simplify_us", p50("zql.simplify"));
    put("zql.plan_nodes", per_op(Sum::PlanNodes));
    put("algebra.fingerprint_us", p50("algebra.fingerprint"));
    put("core.cache_probe_us", p50("core.cache_probe"));
    put("core.cache_insert_us", p50("core.cache_insert"));
    put(
        "core.cache_hit_ratio",
        ratio(n(Sum::CacheHits), n(Sum::CacheHits) + n(Sum::CacheMisses)),
    );
    put("core.cache_evictions", n(Sum::CacheEvictions));
    put("core.optimize_us", p50("core.optimize"));
    put("core.optimize_p99_us", p99("core.optimize"));
    put(
        "core.est_cost_ms",
        ratio(first.est_cost_s * 1e3, n(Sum::Ops)),
    );
    put(
        "volcano.transform_firings",
        per_search(Sum::TransformFirings),
    );
    put("volcano.plans_costed", per_search(Sum::PlansCosted));
    put("volcano.goals", per_search(Sum::Goals));
    put("volcano.memo_exprs", per_search(Sum::MemoExprs));
    put("volcano.pruned", per_search(Sum::Pruned));
    put("exec.execute_us", p50("exec.execute"));
    put("exec.execute_p99_us", p99("exec.execute"));
    put(
        "exec.ns_per_tuple",
        ratio(clock(Sum::ExecuteNs), clock(Sum::Tuples)),
    );
    put(
        "exec.tuples_per_row",
        ratio(n(Sum::Tuples), n(Sum::RootRows)),
    );
    put("exec.preds", per_op(Sum::Preds));
    put("exec.hash_ops", per_op(Sum::HashOps));
    put("exec.derefs", per_op(Sum::Derefs));
    put("exec.mem_peak_bytes", per_op(Sum::MemPeakBytes));
    for (k, kind) in OP_KINDS.iter().enumerate() {
        put(
            &format!("exec.self_us.{kind}"),
            ratio(all.op_self_ns[k] as f64 / 1e3, all.op_instances[k] as f64),
        );
    }
    put(
        "storage.buffer_hit_ratio",
        ratio(
            n(Sum::BufferHits),
            n(Sum::BufferHits) + n(Sum::BufferMisses),
        ),
    );
    put("storage.pages_read", per_op(Sum::PagesRead));
    put(
        "storage.sim_io_ms",
        ratio(first.sim_io_s * 1e3, n(Sum::Ops)),
    );
    put(
        "storage.collect_statistics_us",
        p50("storage.collect_statistics"),
    );
    put("storage.datagen_s", run.datagen_s);
    put("service.submit_us", p50("service.submit"));
    put("service.submit_p99_us", p99("service.submit"));
    put("service.self_us", p50_signed_us(&all.service_self_ns));
    put(
        "service.stage_skew_ratio",
        ratio(clock(Sum::StageNs), clock(Sum::ShadowNs)),
    );
    put("service.refresh_us", p50("service.refresh"));
    put("server.rtt_us", p50("server.rtt"));
    put("server.rtt_p99_us", p99("server.rtt"));
    put("server.self_us", p50_signed_us(&all.server_self_ns));
    put("server.json_encode_us", p50("server.json_encode"));
    put("server.json_decode_us", p50("server.json_decode"));
    put("server.http_read_us", p50("server.http_read"));
    put("server.http_write_us", p50("server.http_write"));
    put("server.transport_us", p50_signed_us(&all.transport_ns));
    put("server.response_bytes", per_op(Sum::ResponseBytes));
    put(
        "server.encode_ns_per_row",
        ratio(clock(Sum::EncodeNs), clock(Sum::RowsEncoded)),
    );
    put("server.prepared_rtt_us", p50("server.prepared_rtt"));
    put(
        "server.shed_ratio",
        ratio(n(Sum::Sheds), n(Sum::WireAttempts)),
    );
    put("wal.append_us", p50("wal.append"));
    put("wal.flush_us", p50("wal.flush"));
    put(
        "wal.bytes_per_record",
        ratio(n(Sum::LogBytes), n(Sum::LogRecords)),
    );
    put(
        "wal.bytes_per_mutation",
        ratio(
            n(Sum::LogBytes) + n(Sum::CheckpointBytes),
            n(Sum::Mutations),
        ),
    );
    put(
        "wal.syncs_per_mutation",
        ratio(n(Sum::LogSyncs), n(Sum::Mutations)),
    );
    put("wal.checkpoint_ms", p50("wal.checkpoint") / 1e3);
    put(
        "wal.checkpoint_bytes",
        ratio(n(Sum::CheckpointBytes), n(Sum::Checkpoints)),
    );
    put("wal.recover_ms", p50("wal.recover") / 1e3);
    put("wal.replayed_records", n(Sum::ReplayedRecords));
    put("wal.set_members_append_us", p50("wal.set_members_append"));
    put("bench.dominant_share", dominant_share(run));
    put(
        "bench.layer_sum_ratio",
        ratio(clock(Sum::ShadowNs), clock(Sum::SubmitNs)),
    );
    put(
        "bench.trace_overhead_ratio",
        ratio(median(&run.traced_wall_s), median(&run.untraced_wall_s)),
    );
    put(
        "bench.rep_spread",
        range_over_median(&run.untraced_throughput),
    );
    out
}

/// The share of a request taken by the layer the workload is in the
/// benchmark for: `exec` on `warm_replay` (and on `mixed_refresh`, where
/// it is the largest of several), `core.optimize` on `cold_adhoc`, the
/// server's part of the round trip on `wire_point`.
fn dominant_share(run: &TracedRun) -> f64 {
    let clock = |s: Sum| run.all[s] as f64;
    match run.kind {
        Kind::WarmReplay | Kind::MixedRefresh => ratio(clock(Sum::ExecuteNs), clock(Sum::SubmitNs)),
        Kind::ColdAdhoc => ratio(clock(Sum::OptimizeNs), clock(Sum::SubmitNs)),
        Kind::WirePoint => ratio(sum(&run.all.server_self_ns), clock(Sum::RttNs)),
    }
}

/// One check of the decomposition: `value` must lie in `min..=max`.
#[derive(Clone, Debug)]
pub struct Gate {
    pub name: &'static str,
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

impl Gate {
    pub fn passed(&self) -> bool {
        (self.min..=self.max).contains(&self.value)
    }
}

/// The reconciliation and layer-dominance gates.
///
/// Reconciliation, on the three in-process workloads: the layers timed
/// from outside must cover the request (`bench.layer_sum_ratio`; what is
/// left is `service.self_us` — admission, snapshot load, feedback, and
/// rendering and sorting the rows, which has no public entry point and is
/// 12% of a warm request with its 300-row answers), and the program's own
/// stage timers must agree with the outside clock on the stages both see
/// (`service.stage_skew_ratio`).
///
/// Dominance (`bench.dominant_share`): each workload is in the benchmark
/// because one layer dominates it. A dominance gate that fails means the
/// workload no longer measures what it is there for; resize the workload,
/// do not relax the gate.
///
/// A failed gate is reported, never an exit code: a later change may not
/// edit the benchmark, and one that speeds the dominant layer up enough
/// to fail its gate must still get its measurements. `selfcheck.sh`,
/// which checks the benchmark and not a change, fails on one.
pub fn gates(run: &TracedRun) -> Vec<Gate> {
    let clock = |s: Sum| run.all[s] as f64;
    let submit = clock(Sum::SubmitNs);
    let dominant = dominant_share(run);
    let hit_ratio = ratio(
        run.first[Sum::CacheHits] as f64,
        (run.first[Sum::CacheHits] + run.first[Sum::CacheMisses]) as f64,
    );
    let gate = |name, value, min, max| Gate {
        name,
        value,
        min,
        max,
    };
    let mut gates = match run.kind {
        Kind::WarmReplay => vec![
            gate("exec share of the request", dominant, 0.80, 1.10),
            gate("plan-cache hit ratio", hit_ratio, 1.0, 1.0),
        ],
        Kind::ColdAdhoc => vec![
            gate("core.optimize share of the request", dominant, 0.60, 1.10),
            gate("plan-cache hit ratio", hit_ratio, 0.0, 0.0),
        ],
        Kind::MixedRefresh => vec![gate("plan-cache hit ratio", hit_ratio, 0.5, 0.8)],
        Kind::WirePoint => vec![
            gate("server share of the round trip", dominant, 0.80, 1.0),
            gate("plan-cache hit ratio", hit_ratio, 1.0, 1.0),
        ],
    };
    if run.kind != Kind::WirePoint {
        gates.push(gate(
            "layers timed from outside / request (bench.layer_sum_ratio)",
            ratio(clock(Sum::ShadowNs), submit),
            0.80,
            1.10,
        ));
        gates.push(gate(
            "program's stage timers / outside clock (service.stage_skew_ratio)",
            ratio(clock(Sum::StageNs), clock(Sum::ShadowNs)),
            0.90,
            1.10,
        ));
    }
    gates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{Fixture, Inputs, Spec};
    use crate::layers::{prepare_all, run_traced_rep, Shadow};
    use std::path::Path;
    use std::time::Instant;

    /// `wire_point` in small: four connections, a 1/100 database.
    static SMALL_WIRE: Spec = Spec {
        kind: Kind::WirePoint,
        name: "wire_point",
        scale_div: 100,
        ops_per_rep: 200,
        setup_reps: 1,
        calibrate_every: None,
    };

    /// The exact counts of a first traced repetition on a fresh fixture.
    fn exact_counts_of_a_traced_wire_repetition() -> Vec<(String, f64)> {
        let inputs = Inputs::generate(&SMALL_WIRE, 5);
        let mut fx = Fixture::build(&SMALL_WIRE, &inputs.texts, Path::new("unused")).unwrap();
        let queries = fx.queries(&inputs);
        let prepared = prepare_all(&mut fx, &queries).unwrap();
        let (rep, spans, tally) = run_traced_rep(
            &mut fx,
            &Shadow::default(),
            &queries,
            &inputs.streams,
            &prepared,
            Instant::now(),
            0,
        );
        assert_eq!((rep.attempted, rep.failed), (800, 0));
        // Every text was planned once, before the clients started: none
        // of them had a search left to race for.
        assert_eq!(tally[Sum::Searches], queries.len() as u64);
        assert_eq!(
            durations(&spans, "core.optimize").len(),
            queries.len(),
            "all of them in the priming pass"
        );
        let run = TracedRun {
            kind: Kind::WirePoint,
            spans,
            first: tally.clone(),
            all: tally,
            untraced_wall_s: Vec::new(),
            untraced_throughput: Vec::new(),
            traced_wall_s: vec![rep.wall_s()],
            datagen_s: 0.0,
        };
        let exact = crate::metrics::per_layer();
        per_layer_values(&run)
            .into_iter()
            .zip(exact)
            .filter(|(_, def)| def.exact)
            .map(|(value, _)| value)
            .collect()
    }

    #[test]
    fn concurrent_traced_repetitions_repeat_their_exact_counts() {
        let first = exact_counts_of_a_traced_wire_repetition();
        assert!(first.len() > 20);
        assert!(first
            .iter()
            .any(|(name, v)| name == "volcano.transform_firings" && *v > 0.0));
        assert_eq!(first, exact_counts_of_a_traced_wire_repetition());
    }
}
