//! The traced repetition: per-layer numbers measured from outside.
//!
//! For every operation the harness first runs a *shadow pipeline* — the
//! same public functions `QueryService::submit_with` chains together,
//! called one by one with a span around each — and then sends the same
//! operation through the service (and, on `wire_point`, the server), so a
//! request's wall time can be set against the sum of its layers. Nothing
//! inside the program is instrumented.

use crate::fixture::{
    Fixture, Kind, Query, Spec, CACHE_CAPACITY, CACHE_SHARDS, STATISTICS_BUCKETS,
};
use crate::reference::answer_matches;
use crate::run::{check_recovery, forget, log_growth, mutation_due, Rep, KERNELS_AROUND_REP};
use crate::speed::Speed;
use crate::trace::{Span, Tracer};
use open_oodb::algebra::fingerprint::fingerprint;
use open_oodb::core::{CacheKey, CachedBody, CachedPlan, PlanCache};
use open_oodb::prelude::*;
use open_oodb::server::{http, json, Client, ClientError, RequestOptions};
use open_oodb::service::{DurabilityStats, QueryOutput};
use open_oodb::wal::WalRecord;
use std::io::Cursor;
use std::ops::{Index, IndexMut};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Operator kinds the executor's `OpTrace` self times are split into.
pub const OP_KINDS: [&str; 8] = [
    "file_scan",
    "index_scan",
    "filter",
    "hash_join",
    "pointer_join",
    "assembly",
    "unnest",
    "project",
];

/// Every this-many-th operation is also executed with `try_execute_traced`.
const OP_TRACE_EVERY: u64 = 10;

fn op_kind(op: &PhysicalOp) -> Option<usize> {
    Some(match op {
        PhysicalOp::FileScan { .. } => 0,
        PhysicalOp::IndexScan { .. } => 1,
        PhysicalOp::Filter { .. } => 2,
        PhysicalOp::HybridHashJoin { .. } => 3,
        PhysicalOp::PointerJoin { .. } => 4,
        PhysicalOp::Assembly { .. } | PhysicalOp::WarmAssembly { .. } => 5,
        PhysicalOp::AlgUnnest { .. } => 6,
        PhysicalOp::AlgProject { .. } => 7,
        _ => return None,
    })
}

/// The sums a traced repetition keeps beside its spans. Work counts
/// repeat bit for bit when the same operations are replayed; the `*Ns`
/// entries are clock readings and do not.
#[derive(Clone, Copy, Debug)]
pub enum Sum {
    Ops,
    PlanNodes,
    Searches,
    TransformFirings,
    PlansCosted,
    Goals,
    MemoExprs,
    Pruned,
    Tuples,
    Preds,
    HashOps,
    Derefs,
    RootRows,
    MemPeakBytes,
    BufferHits,
    BufferMisses,
    PagesRead,
    ResponseBytes,
    RowsEncoded,
    WireAttempts,
    Sheds,
    Mutations,
    LogRecords,
    LogBytes,
    LogSyncs,
    Checkpoints,
    CheckpointBytes,
    ReplayedRecords,
    CacheHits,
    CacheMisses,
    CacheEvictions,
    /// Σ of the stage timers the service reports in `QueryOutput.stages`.
    StageNs,
    /// Σ of the shadow pipeline's layer spans.
    ShadowNs,
    SubmitNs,
    ExecuteNs,
    OptimizeNs,
    EncodeNs,
    RttNs,
}

const SUMS: usize = Sum::RttNs as usize + 1;

#[derive(Clone)]
pub struct Tally {
    n: [u64; SUMS],
    /// Operators seen by `try_execute_traced`, and their self time, per
    /// entry of `OP_KINDS`.
    pub op_instances: [u64; 8],
    pub op_self_ns: [u64; 8],
    pub est_cost_s: f64,
    pub sim_io_s: f64,
    /// Per operation: submit − Σ shadow layer spans.
    pub service_self_ns: Vec<i64>,
    /// Per operation: round trip − in-process submit of the same text.
    pub server_self_ns: Vec<i64>,
    /// Per operation: round trip − submit − the four codec spans.
    pub transport_ns: Vec<i64>,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            n: [0; SUMS],
            op_instances: [0; 8],
            op_self_ns: [0; 8],
            est_cost_s: 0.0,
            sim_io_s: 0.0,
            service_self_ns: Vec::new(),
            server_self_ns: Vec::new(),
            transport_ns: Vec::new(),
        }
    }
}

impl Index<Sum> for Tally {
    type Output = u64;
    fn index(&self, s: Sum) -> &u64 {
        &self.n[s as usize]
    }
}

impl IndexMut<Sum> for Tally {
    fn index_mut(&mut self, s: Sum) -> &mut u64 {
        &mut self.n[s as usize]
    }
}

impl Tally {
    /// Divides every clock reading by `slowdown`; counts stay as they are.
    pub fn rescale_clocks(&mut self, slowdown: f64) {
        let scale = |ns: u64| (ns as f64 / slowdown).round() as u64;
        let signed = |ns: &mut i64| *ns = (*ns as f64 / slowdown).round() as i64;
        // The clock sums are the enum's tail, from `StageNs` on.
        for ns in self.n[Sum::StageNs as usize..]
            .iter_mut()
            .chain(&mut self.op_self_ns)
        {
            *ns = scale(*ns);
        }
        self.service_self_ns.iter_mut().for_each(signed);
        self.server_self_ns.iter_mut().for_each(signed);
        self.transport_ns.iter_mut().for_each(signed);
    }

    /// Adds in what `other` counted in Volcano searches, and nothing else.
    pub fn add_searches(&mut self, other: &Tally) {
        for s in Sum::Searches as usize..=Sum::Pruned as usize {
            self.n[s] += other.n[s];
        }
    }

    /// Adds `other` in. Callers merge in a fixed order (client by client,
    /// repetition by repetition) so the float sums repeat too.
    pub fn absorb(&mut self, other: &Tally) {
        let sums = self.n.iter_mut().zip(&other.n);
        let instances = self.op_instances.iter_mut().zip(&other.op_instances);
        let self_ns = self.op_self_ns.iter_mut().zip(&other.op_self_ns);
        for (a, b) in sums.chain(instances).chain(self_ns) {
            *a += b;
        }
        self.est_cost_s += other.est_cost_s;
        self.sim_io_s += other.sim_io_s;
        self.service_self_ns.extend(&other.service_self_ns);
        self.server_self_ns.extend(&other.server_self_ns);
        self.transport_ns.extend(&other.transport_ns);
    }
}

/// What one client thread gathered over one traced repetition.
struct Gathered {
    spans: Vec<Span>,
    tally: Tally,
    failed: u64,
    speed: Speed,
    /// The service's log counters just before the repetition's checkpoint
    /// started a fresh log.
    log_before_checkpoint: Option<DurabilityStats>,
}

/// The harness-owned copy of the planning path.
pub struct Shadow {
    cache: PlanCache,
    params: CostParams,
    config: OptimizerConfig,
    config_fp: u64,
}

impl Default for Shadow {
    fn default() -> Self {
        let config = OptimizerConfig::all_rules();
        Shadow {
            cache: PlanCache::new(CACHE_CAPACITY, CACHE_SHARDS),
            params: CostParams::default(),
            config_fp: config.fingerprint(),
            config,
        }
    }
}

impl Shadow {
    /// Plans every distinct text once, on the calling thread, as set-up
    /// primes the service's cache. Without it the clients of `wire_point`
    /// race to plan a text they all miss at once, and how many searches
    /// ran — the divisor of every `volcano.*` mean — differs from run to
    /// run. Returns the sums of the pass; its search counts are the
    /// workload's when every request afterwards hits.
    fn prime(&self, tr: &mut Tracer, store: &Store, queries: &[Query]) -> Result<Tally, String> {
        let mut tally = Tally::default();
        for (n, q) in queries.iter().enumerate() {
            self.request(tr, &mut tally, 0, n as u64, store, &q.text)?;
        }
        Ok(tally)
    }

    /// parse → simplify → fingerprint → cache probe → (optimize → insert)
    /// → execute, one span each under `parent`. Returns the row count, or
    /// why the pipeline stopped.
    fn request(
        &self,
        tr: &mut Tracer,
        tally: &mut Tally,
        parent: u64,
        request: u64,
        store: &Store,
        text: &str,
    ) -> Result<usize, String> {
        let mut layer_ns = 0;
        let (ast, ns) = tr.call("zql.parse", parent, request, || {
            open_oodb::zql::parser::parse(text)
        });
        layer_ns += ns;
        let ast = ast.map_err(|e| e.to_string())?;
        let (q, ns) = tr.call("zql.simplify", parent, request, || {
            open_oodb::zql::simplify(&ast, store.schema(), store.catalog())
        });
        layer_ns += ns;
        let q = q.map_err(|e| e.to_string())?;
        tally[Sum::PlanNodes] += q.plan.size() as u64;
        let (fp, ns) = tr.call("algebra.fingerprint", parent, request, || {
            fingerprint(&q.env, &q.plan, q.result_vars, q.order.as_ref())
        });
        layer_ns += ns;
        let catalog = store.catalog();
        let key = CacheKey::static_plan(
            &fp,
            self.config_fp,
            catalog.stats_epoch(),
            catalog.index_set_hash(),
            0,
        );
        let (probed, ns) = tr.call("core.cache_probe", parent, request, || {
            self.cache.get(&key, &fp.key)
        });
        layer_ns += ns;
        let entry =
            match probed {
                Some(entry) => entry,
                None => {
                    let (outcome, ns) =
                        tr.call("core.optimize", parent, request, || {
                            OpenOodb::new(&q.env, self.params, self.config.clone())
                                .optimize_ordered(&q.plan, q.result_vars, q.order)
                        });
                    layer_ns += ns;
                    tally[Sum::OptimizeNs] += ns;
                    let outcome = outcome.ok_or("no feasible plan")?;
                    tally[Sum::Searches] += 1;
                    tally[Sum::TransformFirings] += outcome.stats.transform_firings;
                    tally[Sum::PlansCosted] += outcome.stats.plans_costed;
                    tally[Sum::Goals] += outcome.stats.goals;
                    tally[Sum::MemoExprs] += outcome.stats.exprs as u64;
                    tally[Sum::Pruned] += outcome.stats.pruned;
                    let entry = Arc::new(CachedPlan {
                        structural: fp.key.clone(),
                        env: q.env.clone(),
                        result_vars: q.result_vars,
                        body: CachedBody::Static {
                            plan: outcome.plan,
                            cost: outcome.cost,
                        },
                    });
                    self.cache.note_epoch(catalog.stats_epoch());
                    let (_, ns) = tr.call("core.cache_insert", parent, request, || {
                        self.cache.insert(key, Arc::clone(&entry))
                    });
                    layer_ns += ns;
                    entry
                }
            };
        let CachedBody::Static { plan, cost } = &entry.body else {
            return Err("the shadow cache holds static plans only".to_string());
        };
        tally.est_cost_s += cost.total();
        let (ran, ns) = tr.call("exec.execute", parent, request, || {
            try_execute(store, &entry.env, plan, RunLimits::default())
        });
        layer_ns += ns;
        tally[Sum::ExecuteNs] += ns;
        tally[Sum::ShadowNs] += layer_ns;
        let (result, stats) = ran.map_err(|e| e.to_string())?;
        tally[Sum::Tuples] += stats.counts.tuples;
        tally[Sum::Preds] += stats.counts.preds;
        tally[Sum::HashOps] += stats.counts.hash_ops;
        tally[Sum::Derefs] += stats.counts.derefs;
        tally[Sum::RootRows] += stats.root_rows;
        tally[Sum::MemPeakBytes] += stats.mem.peak_bytes;
        tally[Sum::BufferHits] += stats.buffer_hits;
        tally[Sum::BufferMisses] += stats.buffer_misses;
        tally[Sum::PagesRead] += stats.disk.pages();
        tally.sim_io_s += stats.disk.total_s;

        if request.is_multiple_of(OP_TRACE_EVERY) {
            let (traced, _) = tr.call("exec.execute_traced", parent, request, || {
                try_execute_traced(store, &entry.env, plan, RunLimits::default())
            });
            let (_, _, op_trace) = traced.map_err(|e| e.to_string())?;
            split_by_operator(plan, &op_trace, tally);
        }
        Ok(result.len())
    }
}

/// The trace tree mirrors the plan tree node for node.
fn split_by_operator(plan: &PhysicalPlan, trace: &OpTrace, tally: &mut Tally) {
    if let Some(kind) = op_kind(&plan.op) {
        tally.op_instances[kind] += 1;
        tally.op_self_ns[kind] += trace.self_elapsed_ns();
    }
    for (p, t) in plan.children.iter().zip(&trace.children) {
        split_by_operator(p, t, tally);
    }
}

/// The bytes `Client::query` puts on the wire for `text`.
fn request_bytes(text: &str) -> Vec<u8> {
    let mut body = String::from("{\"query\":");
    json::push_escaped(&mut body, text);
    body.push('}');
    format!(
        "POST /query HTTP/1.1\r\nhost: 127.0.0.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The four codec calls a served request makes, on this answer. Returns
/// their total time.
fn codec_spans(
    tr: &mut Tracer,
    tally: &mut Tally,
    request: u64,
    text: &str,
    out: &QueryOutput,
) -> Result<u64, String> {
    let wire = request_bytes(text);
    let (read, read_ns) = tr.call("server.http_read", 0, request, || {
        http::read_request(&mut Cursor::new(&wire), 1 << 20)
    });
    let read = read.map_err(|e| format!("read_request: {e:?}"))?;
    let (decoded, decode_ns) = tr.call("server.json_decode", 0, request, || {
        json::parse(std::str::from_utf8(&read.body).unwrap_or(""))
    });
    decoded?;
    let (body, encode_ns) = tr.call("server.json_encode", 0, request, || {
        json::encode_output(out)
    });
    let response = http::Response::json(200, body);
    let mut written = Vec::with_capacity(response.body.len() + 128);
    let (wrote, write_ns) = tr.call("server.http_write", 0, request, || {
        response.write_to(&mut written)
    });
    wrote.map_err(|e| e.to_string())?;
    tally[Sum::ResponseBytes] += written.len() as u64;
    tally[Sum::RowsEncoded] += out.rows.len() as u64;
    tally[Sum::EncodeNs] += encode_ns;
    Ok(read_ns + decode_ns + encode_ns + write_ns)
}

/// One operation of a traced repetition, on one client thread.
fn traced_op(
    tr: &mut Tracer,
    tally: &mut Tally,
    shadow: &Shadow,
    svc: &QueryService,
    client: Option<(&mut Client, u64)>,
    request: u64,
    q: &Query,
) -> Result<(), String> {
    tally[Sum::Ops] += 1;
    let store = svc.store();
    let root = tr.begin("shadow", 0, request);
    let shadow_before = tally[Sum::ShadowNs];
    let shadow_rows = shadow.request(tr, tally, root.id, request, &store, &q.text);
    tr.end(root);
    let shadow_ns = tally[Sum::ShadowNs] - shadow_before;
    if !answer_matches(&q.expected, None, shadow_rows?) {
        return Err("the shadow pipeline returned a wrong row count".to_string());
    }

    let (out, submit_ns) = tr.call("service.submit", 0, request, || {
        svc.submit_with(&q.text, SubmitOptions::default())
    });
    let out = out.map_err(|e| e.to_string())?;
    if !answer_matches(&q.expected, Some(&out.rows), out.row_count) {
        return Err("the service returned wrong rows".to_string());
    }
    let s = &out.stages;
    tally[Sum::StageNs] += s.parse_ns
        + s.simplify_ns
        + s.fingerprint_ns
        + s.cache_probe_ns
        + s.optimize_ns
        + s.execute_ns;
    tally[Sum::SubmitNs] += submit_ns;
    tally
        .service_self_ns
        .push(submit_ns as i64 - shadow_ns as i64);

    let codec_ns = codec_spans(tr, tally, request, &q.text, &out)?;
    let Some((client, prepared_id)) = client else {
        return Ok(());
    };

    tally[Sum::WireAttempts] += 1;
    let (remote, rtt_ns) = tr.call("server.rtt", 0, request, || {
        client.query(&q.text, RequestOptions::default())
    });
    let remote = remote.map_err(|e| {
        let shed = matches!(
            e,
            ClientError::Service {
                status: 429 | 503,
                ..
            }
        );
        tally[Sum::Sheds] += u64::from(shed);
        e.to_string()
    })?;
    if !answer_matches(&q.expected, Some(&remote.rows), remote.row_count as usize) {
        return Err("the server returned wrong rows".to_string());
    }
    tally[Sum::RttNs] += rtt_ns;
    let server_self = rtt_ns as i64 - submit_ns as i64;
    tally.server_self_ns.push(server_self);
    tally.transport_ns.push(server_self - codec_ns as i64);
    let (prepared, _) = tr.call("server.prepared_rtt", 0, request, || {
        client.execute(prepared_id, RequestOptions::default())
    });
    prepared.map_err(|e| e.to_string())?;
    Ok(())
}

/// Registers each text as a prepared statement; ids in query order.
pub fn prepare_all(fx: &mut Fixture, queries: &[Query]) -> Result<Vec<u64>, String> {
    let Some(client) = fx.clients.first_mut() else {
        return Ok(Vec::new());
    };
    queries
        .iter()
        .map(|q| {
            client
                .prepare(&q.text)
                .map(|(id, _)| id)
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// WAL calls the service gives a caller no way to time on their own, made
/// on a harness-owned session beside the service's: a `StatsRefresh`
/// append, its flush (with fsync), and a data-bearing `SetMembers` append
/// — a record the service never emits but recovery must replay.
fn wal_spans(tr: &mut Tracer, fx: &Fixture, dir: &Path) -> Result<(), String> {
    let store = fx.svc.store();
    let _ = std::fs::remove_dir_all(dir);
    let mut session = WalSession::create(dir, &store, FlushPolicy::Manual, None)
        .map_err(|e| format!("harness WalSession: {e}"))?;
    let refresh = WalRecord::StatsRefresh {
        buckets: STATISTICS_BUCKETS as u32,
    };
    let set_members = WalRecord::SetMembers {
        coll: fx.ids.cities,
        oids: store.members(fx.ids.cities).to_vec(),
    };
    let result = (0..8).try_for_each(|_| {
        tr.call("wal.append", 0, 0, || session.append(&refresh)).0?;
        tr.call("wal.flush", 0, 0, || session.flush()).0?;
        tr.call("wal.set_members_append", 0, 0, || {
            session.append(&set_members)
        })
        .0?;
        session.flush()
    });
    drop(session);
    let _ = std::fs::remove_dir_all(dir);
    result.map_err(|e| format!("harness WalSession: {e}"))
}

/// One client's share of a traced repetition: every operation of its
/// stream through [`traced_op`], and on `mixed_refresh` the mutations
/// between them, each call a span.
#[allow(clippy::too_many_arguments)]
fn traced_client(
    mut tr: Tracer,
    spec: &Spec,
    shadow: &Shadow,
    svc: &QueryService,
    mut client: Option<&mut Client>,
    queries: &[Query],
    stream: &[usize],
    prepared: &[u64],
) -> Gathered {
    let base = tr.id_base();
    let mut g = Gathered {
        spans: Vec::new(),
        tally: Tally::default(),
        failed: 0,
        speed: Speed::default(),
        log_before_checkpoint: None,
    };
    for (n, &i) in stream.iter().enumerate() {
        if spec
            .calibrate_every
            .is_some_and(|every| n.is_multiple_of(every))
        {
            g.speed.tick();
        }
        let wire = client.as_deref_mut().map(|cl| (cl, prepared[i]));
        let request = base + n as u64;
        let q = &queries[i];
        if let Err(e) = traced_op(&mut tr, &mut g.tally, shadow, svc, wire, request, q) {
            g.failed += 1;
            eprintln!("traced operation failed: {e}: {}", q.text);
        }
        let Some(checkpoint) = mutation_due(spec.kind, n + 1) else {
            continue;
        };
        let store = svc.store();
        tr.call("storage.collect_statistics", 0, request, || {
            store.collect_statistics(&[], STATISTICS_BUCKETS)
        });
        tr.call("service.refresh", 0, request, || {
            svc.refresh_statistics(STATISTICS_BUCKETS)
        });
        g.tally[Sum::Mutations] += 1;
        if checkpoint {
            g.log_before_checkpoint = svc.durability_stats();
            let (done, _) = tr.call("wal.checkpoint", 0, request, || svc.checkpoint_wal());
            match done {
                Some(Ok(stats)) => {
                    g.tally[Sum::Checkpoints] += 1;
                    g.tally[Sum::CheckpointBytes] += stats.bytes;
                }
                _ => g.failed += 1,
            }
        }
    }
    g.spans = tr.into_spans();
    g
}

/// One traced repetition: its client-side outcome, its spans, and its
/// sums (clients merged in client order).
pub fn run_traced_rep(
    fx: &mut Fixture,
    shadow: &Shadow,
    queries: &[Query],
    streams: &[Vec<usize>],
    prepared: &[u64],
    epoch: Instant,
    rep_index: u64,
) -> (Rep, Vec<Span>, Tally) {
    forget(fx);
    if fx.spec.kind == Kind::ColdAdhoc {
        shadow.cache.clear();
    }
    let cache_start = fx.svc.cache().stats();
    let log_start = fx.svc.durability_stats();
    let kind = fx.spec.kind;
    let svc = fx.svc.clone();
    // Span and request ids are unique across repetitions and clients:
    // 2^32 per repetition, 2^28 per client (14 and 15 are the harness's own).
    let id_base = |client: u64| (rep_index << 32) | (client << 28);
    let mut spans = Vec::new();
    let mut tally = Tally::default();
    let mut failed = 0;
    if rep_index == 0 && kind != Kind::ColdAdhoc {
        // `cold_adhoc` meets its texts unprimed, in the shadow as in the
        // service. Elsewhere the first repetition finds the shadow cache
        // as set-up left the service's; of the pass's spans it keeps
        // those no later request will produce.
        let mut tr = Tracer::new(epoch, id_base(14));
        match shadow.prime(&mut tr, &fx.svc.store(), queries) {
            Ok(primed) => tally.add_searches(&primed),
            Err(e) => {
                eprintln!("priming the shadow cache failed: {e}");
                failed += 1;
            }
        }
        spans = tr.into_spans();
        spans.retain(|s| matches!(s.name, "core.optimize" | "core.cache_insert"));
    }
    let mut speed = Speed::default();
    if kind == Kind::WirePoint {
        (0..KERNELS_AROUND_REP).for_each(|_| speed.tick());
    }
    let wall = Instant::now();

    let mut clients: Vec<Option<&mut Client>> = fx.clients.iter_mut().map(Some).collect();
    if clients.is_empty() {
        clients.push(None);
    }
    let gathered: Vec<Gathered> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(streams)
            .enumerate()
            .map(|(c, (client, stream))| {
                let tr = Tracer::new(epoch, id_base(c as u64));
                let (spec, svc) = (fx.spec, &svc);
                s.spawn(move || {
                    traced_client(tr, spec, shadow, svc, client, queries, stream, prepared)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut raw_wall_s = wall.elapsed().as_secs_f64();
    if kind == Kind::WirePoint {
        (0..KERNELS_AROUND_REP).for_each(|_| speed.tick());
    } else {
        // The kernel ran between the operations of the one client.
        speed = gathered[0].speed;
        raw_wall_s -= speed.spent_s();
    }
    let mut rep = Rep {
        raw_wall_s,
        slowdown: speed.slowdown(),
        failed,
        ..Default::default()
    };

    let mut log_before_checkpoint = None;
    for g in gathered {
        rep.failed += g.failed;
        spans.extend(g.spans);
        tally.absorb(&g.tally);
        log_before_checkpoint = log_before_checkpoint.or(g.log_before_checkpoint);
    }
    rep.attempted = tally[Sum::Ops] + tally[Sum::Mutations];

    let cache = fx.svc.cache().stats();
    tally[Sum::CacheHits] = cache.hits - cache_start.hits;
    tally[Sum::CacheMisses] = cache.misses - cache_start.misses;
    tally[Sum::CacheEvictions] = cache.evictions - cache_start.evictions;

    if kind == Kind::MixedRefresh {
        if let (Some(start), Some(mid), Some(end)) =
            (log_start, log_before_checkpoint, fx.svc.durability_stats())
        {
            let grown = log_growth(&start, &mid, &end);
            tally[Sum::LogRecords] = grown.records;
            tally[Sum::LogBytes] = grown.bytes;
            tally[Sum::LogSyncs] = grown.syncs;
        }
        let mut tr = Tracer::new(epoch, id_base(15));
        match check_recovery(fx, queries) {
            Ok(r) => {
                tr.record("wal.recover", r.started, r.recover_ns);
                tally[Sum::ReplayedRecords] += r.replayed_records;
            }
            Err(e) => {
                eprintln!("recovery check failed: {e}");
                rep.failed += tally[Sum::Mutations];
            }
        }
        let dir = fx.wal_dir.as_ref().expect("mixed_refresh has a directory");
        if let Err(e) = wal_spans(&mut tr, fx, &dir.with_extension("harness")) {
            eprintln!("{e}");
            rep.failed += 1;
        }
        spans.extend(tr.into_spans());
    }
    (rep, spans, tally)
}
