//! The four workloads' parameters, and the set-up each one times: the
//! database, the service, the server and its connections, the durability
//! directory, and a plan cache primed with every text of the pool.

use crate::pool::{adhoc_stream, point_pool, replay_pool, Shape};
use crate::reference;
use crate::stats::zipf_stream;
use open_oodb::object::paper::PaperIds;
use open_oodb::prelude::*;
use open_oodb::server::{Client, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    WarmReplay,
    ColdAdhoc,
    WirePoint,
    MixedRefresh,
}

/// One workload's fixed parameters; why each workload is in the benchmark
/// is in `BENCHMARK.json` and `README.md`. Operation counts are fixed, not
/// time-boxed, so every count metric repeats exactly and both sides of a
/// later comparison replay identical work; `--seconds` decides how many
/// repetitions of that work a run measures.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// Table 1 cardinalities are divided by this.
    pub scale_div: u64,
    /// Queries per repetition, per client.
    pub ops_per_rep: usize,
    /// How many times a run sets the workload up. The benchmark's contract
    /// wants `setup_s` as the median of several set-ups in one run; more
    /// of them where one is shorter.
    pub setup_reps: usize,
    /// The calibration kernel (~1.3 ms) runs before every this-many-th
    /// operation — about a tenth of the repetition. `None` on
    /// `wire_point`, whose clients run on threads of their own: there the
    /// kernel runs on either side of the repetition.
    pub calibrate_every: Option<usize>,
}

pub const ZIPF_EXPONENT: f64 = 1.0;
pub const CACHE_CAPACITY: usize = 256;
pub const CACHE_SHARDS: usize = 8;
/// `mixed_refresh`: a statistics refresh follows every this many queries.
pub const REFRESH_EVERY: usize = 100;
/// `mixed_refresh`: the log is checkpointed after this mutation of each
/// repetition, so recovery always loads a checkpoint *and* replays a tail.
pub const CHECKPOINT_AFTER_MUTATION: usize = 6;
pub const STATISTICS_BUCKETS: usize = 16;

pub const SPECS: [Spec; 4] = [
    Spec {
        kind: Kind::WarmReplay,
        name: "warm_replay",
        scale_div: 10,
        ops_per_rep: 1000,
        setup_reps: 9,
        calibrate_every: Some(8),
    },
    Spec {
        kind: Kind::ColdAdhoc,
        name: "cold_adhoc",
        scale_div: 100,
        ops_per_rep: 1500,
        setup_reps: 25,
        calibrate_every: Some(32),
    },
    Spec {
        kind: Kind::WirePoint,
        name: "wire_point",
        scale_div: 1,
        ops_per_rep: 1500,
        setup_reps: 5,
        calibrate_every: None,
    },
    Spec {
        kind: Kind::MixedRefresh,
        name: "mixed_refresh",
        scale_div: 10,
        ops_per_rep: 1000,
        setup_reps: 9,
        calibrate_every: Some(8),
    },
];

pub fn spec_named(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One distinct query of a workload and the rows it must return.
pub struct Query {
    pub text: String,
    pub expected: Vec<String>,
}

/// A workload's inputs, made from the seed before anything is timed.
pub struct Inputs {
    pub shapes: Vec<Shape>,
    pub texts: Vec<String>,
    /// Per client, the indices into `shapes` one repetition sends.
    pub streams: Vec<Vec<usize>>,
}

/// Closed-loop clients. `wire_point` keeps four connections busy whatever
/// the core count: with one or two on this 2-core box the cores idle
/// between the four thread hand-offs of a request, the VM's wake-up
/// latency sets the round trip, and run-to-run medians move by 7-9%; with
/// four the cores stay busy and medians agree within 4%.
pub fn client_count(kind: Kind) -> usize {
    match kind {
        Kind::WirePoint => 4,
        _ => 1,
    }
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let shapes = match spec.kind {
            Kind::WarmReplay | Kind::MixedRefresh => replay_pool(),
            Kind::WirePoint => point_pool(),
            Kind::ColdAdhoc => adhoc_stream(seed, spec.ops_per_rep),
        };
        let streams = (0..client_count(spec.kind) as u64)
            .map(|client| match spec.kind {
                Kind::ColdAdhoc => (0..shapes.len()).collect(),
                _ => zipf_stream(
                    seed.wrapping_add(client.wrapping_mul(0x9e37_79b9)),
                    shapes.len(),
                    ZIPF_EXPONENT,
                    spec.ops_per_rep,
                ),
            })
            .collect();
        let texts = shapes.iter().map(Shape::text).collect();
        Inputs {
            shapes,
            texts,
            streams,
        }
    }
}

pub fn new_service(store: Store) -> QueryService {
    QueryService::new(
        store,
        CostParams::default(),
        OptimizerConfig::all_rules(),
        CACHE_CAPACITY,
        CACHE_SHARDS,
    )
}

/// Everything a workload runs against. Dropping it closes the
/// connections, drains the server and removes the durability directory.
pub struct Fixture {
    pub spec: &'static Spec,
    pub svc: QueryService,
    pub ids: PaperIds,
    pub server: Option<Server>,
    pub clients: Vec<Client>,
    pub wal_dir: Option<PathBuf>,
    pub datagen_s: f64,
}

impl Fixture {
    /// The timed set-up. `texts` prime the plan cache (every workload but
    /// `cold_adhoc`, whose point is that nothing was seen before).
    pub fn build(spec: &'static Spec, texts: &[String], out_dir: &Path) -> Result<Fixture, String> {
        let started = Instant::now();
        let (store, model) = generate_paper_db(GenConfig {
            scale_div: spec.scale_div,
            ..Default::default()
        });
        let datagen_s = started.elapsed().as_secs_f64();
        let svc = new_service(store);
        let mut fx = Fixture {
            spec,
            svc,
            ids: model.ids,
            server: None,
            clients: Vec::new(),
            wal_dir: None,
            datagen_s,
        };
        if spec.kind == Kind::MixedRefresh {
            let dir = out_dir.join(format!("wal-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            fx.svc
                .enable_durability(&dir, FlushPolicy::EveryRecord)
                .map_err(|e| format!("enable_durability: {e}"))?;
            fx.wal_dir = Some(dir);
        }
        if spec.kind == Kind::WirePoint {
            let server = Server::start(fx.svc.clone(), "127.0.0.1:0", ServerConfig::default())
                .map_err(|e| format!("server start: {e}"))?;
            let addr = server.local_addr().to_string();
            fx.server = Some(server);
            for _ in 0..client_count(spec.kind) {
                fx.clients
                    .push(Client::connect(&addr).map_err(|e| format!("connect: {e}"))?);
            }
        }
        if spec.kind != Kind::ColdAdhoc {
            for text in texts {
                fx.svc
                    .submit(text)
                    .map_err(|e| format!("priming {text:?}: {e}"))?;
            }
        }
        Ok(fx)
    }

    /// Reference answers, one per distinct text, from the store the
    /// service holds. Not part of the timed set-up: it is the harness's
    /// work, not the program's.
    pub fn queries(&self, inputs: &Inputs) -> Vec<Query> {
        let store = self.svc.store();
        inputs
            .shapes
            .iter()
            .zip(&inputs.texts)
            .map(|(shape, text)| Query {
                text: text.clone(),
                expected: reference::evaluate(&store, &self.ids, shape),
            })
            .collect()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        // Connections first: the server's drain joins connection threads,
        // and an idle keep-alive one only ends when its peer hangs up.
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        self.svc.disable_durability();
        if let Some(dir) = self.wal_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
