//! `oodb` — an interactive ZQL shell over the generated Table 1 database.
//!
//! ```text
//! $ cargo run -p oodb-cli
//! oodb> SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe";
//! oodb> EXPLAIN SELECT t FROM Task t IN Tasks WHERE t.time() == 100;
//! oodb> \catalog          -- collections and statistics
//! oodb> \indexes          -- index descriptors
//! oodb> \rules off join-commutativity
//! oodb> \stats            -- collect histograms (refined selectivity)
//! oodb> \help
//! ```

#![forbid(unsafe_code)]

use oodb_core::{
    drift_ratio, greedy_plan, CostParams, EnumLimits, OodbModel, OpenOodb, OptimizerConfig,
};
use oodb_service::{FlushPolicy, QueryService, ServiceError, SubmitOptions};
use oodb_storage::{
    generate_paper_db, FaultConfig, FaultInjector, GenConfig, MemoryGovernor, Store,
};
use oodb_telemetry::fmt_ns;
use std::io::{BufRead, Write};

/// Collects every predicate id in a logical plan (selects and joins), in
/// plan order, for the `EXPLAIN FEEDBACK` per-predicate listing.
fn collect_preds(plan: &oodb_algebra::LogicalPlan, out: &mut Vec<oodb_algebra::PredId>) {
    if let oodb_algebra::LogicalOp::Select { pred } | oodb_algebra::LogicalOp::Join { pred } =
        &plan.op
    {
        out.push(*pred);
    }
    for c in &plan.children {
        collect_preds(c, out);
    }
}

/// Renders one verifier diagnostic the same way everywhere — check name,
/// operator path ([`Diagnostic::path_string`]), operator, then the
/// expected/actual pair — whether it came from the logical linter, the
/// winning-plan verifier, or the plan-space auditor.
///
/// [`Diagnostic::path_string`]: oodb_core::verify::Diagnostic::path_string
fn print_diag(d: &oodb_core::verify::Diagnostic) {
    println!(
        "  [{}] at {} ({})\n      expected {}\n      got      {}",
        d.check,
        d.path_string(),
        d.op,
        d.expected,
        d.actual
    );
}

/// Prints result rows the way every statement does, local or remote: the
/// first twenty, then the total.
fn print_rows(rows: &[String]) {
    for row in rows.iter().take(20) {
        println!("  {row}");
    }
    if rows.len() > 20 {
        println!("  ... ({} rows total)", rows.len());
    }
}

/// The one service a shell drives: statements, `\`-commands and `\serve`
/// traffic all go through it.
fn service_over(store: Store, config: OptimizerConfig) -> QueryService {
    QueryService::new(store, CostParams::default(), config, 256, 8)
}

struct Shell {
    svc: QueryService,
    /// A network server launched from this shell (`\serve`), serving
    /// `svc` itself — not a copy.
    server: Option<oodb_server::Server>,
    /// A connection to a running server (`\connect`); while set, plain
    /// statements execute remotely.
    remote: Option<oodb_server::Client>,
}

fn main() {
    let scale: u64 = std::env::args()
        .skip_while(|a| a != "--scale")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    // `--hot-names F` skews the Employees set so a fraction F share one
    // name while the catalog still assumes uniformity — a ready-made
    // estimate-drift fixture for exercising the feedback loop.
    let hot_names: f64 = std::env::args()
        .skip_while(|a| a != "--hot-names")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.0);
    eprintln!("Generating the Table 1 database at scale 1/{scale}...");
    let (store, _model) = generate_paper_db(GenConfig {
        scale_div: scale,
        hot_employee_name_fraction: hot_names,
        ..Default::default()
    });
    let mut shell = Shell {
        svc: service_over(store, OptimizerConfig::all_rules()),
        server: None,
        remote: None,
    };
    eprintln!("Open OODB reproduction shell. \\help for commands, \\q to quit.");

    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("oodb> ");
        } else {
            print!("  ..> ");
        }
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim_end();
        if buffer.is_empty() && line.starts_with('\\') {
            if !shell.command(line) {
                break;
            }
            continue;
        }
        buffer.push_str(line);
        buffer.push(' ');
        // Statements end with ';' (or a blank line flushes).
        if line.trim_end().ends_with(';') || line.trim().is_empty() {
            let stmt = std::mem::take(&mut buffer);
            let stmt = stmt.trim();
            if !stmt.is_empty() && stmt != ";" {
                shell.statement(stmt);
            }
        }
    }
    // Drain a shell-launched server before exiting so in-flight remote
    // requests get their responses.
    if let Some(s) = shell.server.take() {
        eprintln!("draining server on {}...", s.local_addr());
        s.shutdown();
    }
}

impl Shell {
    /// Compiles `src` against the service's current snapshot; a front-end
    /// rejection is printed and yields `None`.
    fn compile(&self, src: &str) -> Option<zql::SimplifiedQuery> {
        let store = self.svc.store();
        zql::compile(src, store.schema(), store.catalog())
            .map_err(|e| println!("{e}"))
            .ok()
    }

    /// Edits the service's optimizer configuration in place.
    fn update_config(&self, edit: impl FnOnce(&mut OptimizerConfig)) {
        let mut config = self.svc.config();
        edit(&mut config);
        self.svc.set_config(config);
    }

    /// Handles a backslash command; returns false to quit.
    fn command(&mut self, line: &str) -> bool {
        let mut parts = line.split_whitespace();
        let store = self.svc.store();
        let (schema, catalog) = (store.schema(), store.catalog());
        match parts.next().unwrap_or("") {
            "\\q" | "\\quit" => return false,
            "\\help" => {
                println!(
                    "Statements: any ZQL query ending in ';' — executed and printed.\n\
                     Prefix with EXPLAIN to see the optimal (and greedy) plan instead,\n\
                     EXPLAIN ANALYZE to run it and annotate each operator with\n\
                     actual rows, wall time, and buffer I/O, EXPLAIN VERIFY to\n\
                     statically check the winning plan and every expression the\n\
                     transformation rules generated, or\n\
                     EXPLAIN AUDIT to enumerate the full plan space and prove the\n\
                     winner cost-minimal over it, or EXPLAIN FEEDBACK to compare\n\
                     catalog selectivities against feedback-derived overrides.\n\
                     Commands:\n\
                     \\schema              types and fields\n\
                     \\catalog             collections and cardinalities\n\
                     \\indexes             index descriptors\n\
                     \\rules [off NAME | on NAME | reset]   rule configuration\n\
                     \\window N            assembly window (1 = no elevator)\n\
                     \\stats               collect histograms for refined selectivity\n\
                     \\cache [stats|clear] plan-cache counters / drop cached plans\n\
                     \\feedback [stats|clear] actual-vs-estimated drift per query\n\
                     \\trace QUERY;        show the goal-directed search trace\n\
                     \\verify QUERY;       statically verify the query's winning plan\n\
                     \\audit QUERY;        enumeration oracle + interval + rule-graph audit\n\
                     \\serve ADDR          serve this database over HTTP (\\serve stop)\n\
                     \\connect ADDR        run statements against a remote server\n\
                     \\disconnect          go back to local execution\n\
                     \\metrics             dump all metrics (Prometheus text format)\n\
                     \\faults on [RATE] [SEED]   inject storage faults (default 0.05)\n\
                     \\faults off          detach the fault injector\n\
                     \\faults stats        injector counters and enabled state\n\
                     \\mem on [BYTES]      govern execution memory (default 1 MiB);\n\
                     \\                    hash joins and set ops spill when over\n\
                     \\mem off             detach the memory governor\n\
                     \\mem stats           governor ledger and pressure level\n\
                     \\durability on DIR [batch N | manual]   write-ahead-log \\stats\n\
                     \\                    mutations into DIR (checkpoint + log)\n\
                     \\durability off      stop logging (flushes first)\n\
                     \\wal [stats]         log counters and checkpoint sizes\n\
                     \\wal checkpoint      compact the log into a fresh checkpoint\n\
                     \\save PATH           snapshot the database to a checkpoint file\n\
                     \\open PATH           load a snapshot or recover a durability dir\n\
                     \\q                   quit"
                );
            }
            "\\schema" => {
                for (ty, def) in schema.types() {
                    let fields: Vec<String> = schema
                        .fields_of(ty)
                        .into_iter()
                        .map(|f| {
                            let fd = schema.field(f);
                            match fd.kind {
                                oodb_object::FieldKind::Attr(a) => {
                                    format!("{}: {a:?}", fd.name)
                                }
                                oodb_object::FieldKind::Ref(t) => {
                                    format!("{} -> {}", fd.name, schema.ty(t).name)
                                }
                                oodb_object::FieldKind::RefSet(t) => {
                                    format!("{} -> {{{}}}", fd.name, schema.ty(t).name)
                                }
                            }
                        })
                        .collect();
                    let sup = def
                        .supertype
                        .map(|s| format!(" : {}", schema.ty(s).name))
                        .unwrap_or_default();
                    println!("{}{} {{ {} }}", def.name, sup, fields.join(", "));
                }
            }
            "\\catalog" => {
                for (_, def) in catalog.collections() {
                    println!(
                        "{:<22} {:>9} x {:>5} bytes  ({:?})",
                        def.name, def.cardinality, def.obj_bytes, def.kind
                    );
                }
                println!("histograms collected: {}", catalog.histogram_count());
            }
            "\\indexes" => {
                for (_, d) in catalog.indexes() {
                    let path: Vec<String> = d
                        .path
                        .iter()
                        .chain(std::iter::once(&d.key))
                        .map(|&f| schema.field(f).name.clone())
                        .collect();
                    println!(
                        "{:<22} on {} ({}) distinct {}",
                        d.name,
                        catalog.collection(d.collection).name,
                        path.join("."),
                        d.distinct_keys
                    );
                }
            }
            "\\rules" => match (parts.next(), parts.next()) {
                (Some("off"), Some(name)) => match oodb_core::config::rule_name_by_str(name) {
                    Some(stable) => {
                        self.update_config(|c| {
                            c.disabled_rules.insert(stable);
                        });
                        println!("disabled {stable}");
                    }
                    None => println!("unknown rule {name:?} — see \\rules"),
                },
                (Some("on"), Some(name)) => match oodb_core::config::rule_name_by_str(name) {
                    Some(stable) => {
                        self.update_config(|c| {
                            c.disabled_rules.remove(stable);
                        });
                        println!("enabled {stable}");
                    }
                    None => println!("unknown rule {name:?}"),
                },
                (Some("reset"), _) => {
                    self.svc.set_config(OptimizerConfig::all_rules());
                    println!("rules reset to the default set");
                }
                _ => {
                    let config = self.svc.config();
                    for name in oodb_core::config::ALL_RULE_NAMES {
                        let state = if config.enabled(name) { "on " } else { "OFF" };
                        println!("{state} {name}");
                    }
                }
            },
            "\\window" => {
                if let Some(n) = parts.next().and_then(|s| s.parse().ok()) {
                    self.update_config(|c| c.assembly_window = n);
                }
                println!("assembly window = {}", self.svc.config().assembly_window);
            }
            "\\trace" => match line.split_once(' ') {
                Some((_, src)) => self.trace(src),
                None => println!("usage: \\trace SELECT ... ;"),
            },
            "\\audit" => match line.split_once(' ') {
                Some((_, src)) => self.audit_stmt(src),
                None => println!("usage: \\audit SELECT ... ;"),
            },
            "\\verify" => match line.split_once(' ') {
                Some((_, src)) => self.verify_stmt(src),
                None => println!("usage: \\verify SELECT ... ;"),
            },
            "\\stats" => {
                // Logged before it is applied when durability is on. Only
                // a changed histogram bumps the epoch, which retires
                // cached plans and stale feedback.
                let moved = self.svc.refresh_statistics(32);
                let store = self.svc.store();
                let (count, epoch) = (
                    store.catalog().histogram_count(),
                    store.catalog().stats_epoch(),
                );
                if moved {
                    println!(
                        "collected {count} histograms; selectivity estimation refined \
                         (stats epoch {epoch} — cached plans will re-optimize)"
                    );
                } else {
                    println!(
                        "collected {count} histograms; statistics unchanged, cached \
                         plans kept (stats epoch {epoch})"
                    );
                }
            }
            "\\cache" => match parts.next() {
                Some("clear") => {
                    self.svc.cache().clear();
                    println!("plan cache cleared");
                }
                None | Some("stats") => {
                    let s = self.svc.cache().stats();
                    println!(
                        "plan cache: {} entries, {} hits, {} misses, {} evictions \
                         ({:.0}% hit rate); stats epoch {}",
                        s.entries,
                        s.hits,
                        s.misses,
                        s.evictions,
                        s.hit_rate() * 100.0,
                        catalog.stats_epoch()
                    );
                }
                Some(other) => println!("unknown subcommand {other:?}; \\cache [stats|clear]"),
            },
            "\\feedback" => match parts.next() {
                Some("clear") => {
                    self.svc.feedback().clear();
                    println!("feedback cleared");
                }
                None | Some("stats") => {
                    let s = self.svc.feedback_stats();
                    println!(
                        "feedback: {} fingerprints tracked, {} suspect, {} with \
                         overrides ({} overrides total); worst drift {:.1}x \
                         (threshold {:.0}x)",
                        s.tracked,
                        s.suspect,
                        s.overridden,
                        s.overrides,
                        s.worst_drift,
                        oodb_core::DRIFT_THRESHOLD
                    );
                    for e in self.svc.feedback_snapshot() {
                        println!(
                            "  {:016x}  execs {:>4}  est {:>10.1}  actual {:>8}  \
                             drift {:>7.1}x{}{}",
                            e.fingerprint,
                            e.execs,
                            e.last_est,
                            e.last_actual,
                            e.worst_drift,
                            if e.suspect { "  SUSPECT" } else { "" },
                            if e.overrides > 0 {
                                format!("  {} override(s)", e.overrides)
                            } else {
                                String::new()
                            }
                        );
                    }
                }
                Some(other) => {
                    println!("unknown subcommand {other:?}; \\feedback [stats|clear]")
                }
            },
            "\\metrics" => print!("{}", self.svc.metrics_prometheus()),
            "\\serve" => match parts.next() {
                Some("stop") => match self.server.take() {
                    Some(s) => {
                        let addr = s.local_addr();
                        s.shutdown();
                        println!("server on {addr} drained and stopped");
                    }
                    None => println!("no server running; \\serve ADDR"),
                },
                Some(_) if self.server.is_some() => {
                    println!("a server is already running; \\serve stop first")
                }
                // The server shares this shell's service: \rules, \stats,
                // \faults and \mem apply to served traffic too.
                Some(addr) => match oodb_server::Server::start(
                    self.svc.clone(),
                    addr,
                    oodb_server::ServerConfig::default(),
                ) {
                    Ok(s) => {
                        println!(
                            "serving on {} — POST /query, /prepare, \
                             /execute/{{id}}; GET /metrics, /healthz, /stats",
                            s.local_addr()
                        );
                        self.server = Some(s);
                    }
                    Err(e) => println!("cannot serve on {addr}: {e}"),
                },
                None => match &self.server {
                    Some(s) => println!("serving on {}", s.local_addr()),
                    None => println!("usage: \\serve ADDR (e.g. 127.0.0.1:7070) | \\serve stop"),
                },
            },
            "\\connect" => match parts.next() {
                Some(addr) => match oodb_server::Client::connect(addr.to_string()) {
                    Ok(mut c) => match c.healthz() {
                        Ok(()) => {
                            println!(
                                "connected to {addr}; statements now execute remotely \
                                 (\\disconnect to go local)"
                            );
                            self.remote = Some(c);
                        }
                        Err(e) => println!("{addr} did not answer /healthz: {e}"),
                    },
                    Err(e) => println!("cannot connect to {addr}: {e}"),
                },
                None => match &self.remote {
                    Some(c) => println!("connected to {}", c.host()),
                    None => println!("usage: \\connect ADDR"),
                },
            },
            "\\disconnect" => match self.remote.take() {
                Some(c) => println!("disconnected from {}", c.host()),
                None => println!("not connected"),
            },
            "\\faults" => match parts.next() {
                Some("on") => {
                    let rate = parts
                        .next()
                        .and_then(|s| s.parse::<f64>().ok())
                        .unwrap_or(0.05)
                        .clamp(0.0, 1.0);
                    let seed: u64 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(0x00DB);
                    self.svc
                        .attach_fault_injector(FaultInjector::new(FaultConfig {
                            read_fault_rate: rate,
                            seed,
                            ..Default::default()
                        }));
                    println!("fault injection on: read fault rate {rate}, seed {seed}");
                }
                Some("off") => {
                    self.svc.detach_fault_injector();
                    println!("fault injection off");
                }
                None | Some("stats") => match store.fault_injector() {
                    Some(inj) => {
                        let s = inj.stats();
                        println!(
                            "fault injector {}: {} injected ({} transient, {} permanent), \
                             {} panics, {} healed accesses, {} latency events",
                            if inj.enabled() { "enabled" } else { "disabled" },
                            s.injected,
                            s.transient,
                            s.permanent,
                            s.panics,
                            s.healed_accesses,
                            s.latency_events
                        );
                    }
                    None => println!("no fault injector attached; \\faults on [RATE] [SEED]"),
                },
                Some(other) => {
                    println!("unknown subcommand {other:?}; \\faults on|off|stats")
                }
            },
            "\\mem" => match parts.next() {
                Some("on") => {
                    let bytes: u64 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(1 << 20)
                        .max(1);
                    self.svc.attach_memory_governor(MemoryGovernor::new(bytes));
                    println!(
                        "memory governor on: {bytes} bytes capacity; operators \
                         spill to simulated disk when grants run out"
                    );
                }
                Some("off") => {
                    self.svc.detach_memory_governor();
                    println!("memory governor off");
                }
                None | Some("stats") => match store.memory_governor() {
                    Some(gov) => {
                        let s = gov.stats();
                        println!(
                            "memory governor: {}/{} bytes reserved (peak {}), \
                             pressure {}; {} grants, {} denials, spill {} B \
                             written / {} B read",
                            s.reserved,
                            s.capacity,
                            s.peak_reserved,
                            gov.pressure(),
                            s.grants_issued,
                            s.grant_denials,
                            s.spill_bytes_written,
                            s.spill_bytes_read
                        );
                    }
                    None => println!("no memory governor attached; \\mem on [BYTES]"),
                },
                Some(other) => {
                    println!("unknown subcommand {other:?}; \\mem on|off|stats")
                }
            },
            "\\durability" => match parts.next() {
                Some("on") => match parts.next() {
                    Some(dir) => {
                        let policy = match (parts.next(), parts.next()) {
                            (Some("batch"), Some(n)) => FlushPolicy::Batch(n.parse().unwrap_or(8)),
                            (Some("manual"), _) => FlushPolicy::Manual,
                            _ => FlushPolicy::EveryRecord,
                        };
                        match self
                            .svc
                            .enable_durability(std::path::Path::new(dir), policy)
                        {
                            Ok(()) => println!(
                                "durability on: checkpointed {} records into {dir} \
                                 ({policy:?} flushes)",
                                self.svc
                                    .durability_stats()
                                    .map_or(0, |s| s.checkpoint_records)
                            ),
                            Err(e) => println!("cannot start durability: {e}"),
                        }
                    }
                    None => println!("\\durability on DIR [batch N | manual]"),
                },
                Some("off") => {
                    if !self.end_durability() {
                        println!("durability is already off");
                    }
                }
                _ => println!(
                    "durability is {}; \\durability on DIR [batch N | manual] | off",
                    match self.svc.durability_stats() {
                        Some(s) => format!("on ({})", s.dir),
                        None => "off".into(),
                    }
                ),
            },
            "\\wal" => match parts.next() {
                Some("checkpoint") => match self.svc.checkpoint_wal() {
                    Some(Ok(ck)) => println!(
                        "checkpoint: {} records, {} bytes; log reset at seq {}",
                        ck.records,
                        ck.bytes,
                        self.svc.durability_stats().map_or(0, |s| s.next_seq)
                    ),
                    Some(Err(e)) => println!("checkpoint failed: {e}"),
                    None => println!("durability is off; \\durability on DIR first"),
                },
                None | Some("stats") => match self.svc.durability_stats() {
                    Some(s) => println!(
                        "wal: {} records ({} bytes), {} flushes, {} syncs, \
                         {} buffered, next seq {}{}\n\
                         checkpoint: {} records ({} bytes); {} log records \
                         compacted this session",
                        s.records,
                        s.bytes,
                        s.flushes,
                        s.syncs,
                        s.buffered_records,
                        s.next_seq,
                        if s.poisoned { "  POISONED" } else { "" },
                        s.checkpoint_records,
                        s.checkpoint_bytes,
                        s.compacted_records,
                    ),
                    None => println!("durability is off; \\durability on DIR first"),
                },
                Some(other) => println!("unknown subcommand {other:?}; \\wal [stats|checkpoint]"),
            },
            "\\save" => match parts.next() {
                Some(path) => {
                    let recs = oodb_wal::checkpoint_records(&store);
                    match oodb_wal::write_checkpoint(std::path::Path::new(path), 0, &recs) {
                        Ok(ck) => println!(
                            "saved {} records ({} bytes) to {path}",
                            ck.records, ck.bytes
                        ),
                        Err(e) => println!("save failed: {e}"),
                    }
                }
                None => println!("\\save PATH — snapshot the database to a checkpoint file"),
            },
            "\\open" => match parts.next() {
                // A served database cannot change identity under its
                // clients.
                Some(_) if self.server.is_some() => {
                    println!("cannot \\open while serving; \\serve stop first")
                }
                Some(path) => {
                    let p = std::path::Path::new(path);
                    // A directory is a durability dir (checkpoint + log);
                    // a file is a bare \save snapshot.
                    let recovered = if p.is_dir() {
                        oodb_wal::recover(p)
                            .map(|(store, report)| {
                                if let Some(stop) = &report.stopped {
                                    println!("replay stopped early: {stop}");
                                }
                                println!(
                                    "recovered: {} checkpoint + {} log records \
                                     ({} torn tail bytes discarded)",
                                    report.checkpoint_records,
                                    report.replayed_records,
                                    report.torn_tail_bytes
                                );
                                store
                            })
                            .map_err(|e| e.to_string())
                    } else {
                        oodb_wal::load_checkpoint(p)
                            .map_err(|e| e.to_string())
                            .and_then(|(_, recs)| {
                                let mut slot = None;
                                for rec in &recs {
                                    oodb_wal::apply_record(&mut slot, rec)
                                        .map_err(|e| e.to_string())?;
                                }
                                slot.ok_or_else(|| "empty checkpoint".into())
                            })
                    };
                    match recovered {
                        Ok(store) => {
                            // The old session logged the old database; it
                            // must not see the new one's mutations.
                            self.end_durability();
                            self.svc = service_over(store, self.svc.config());
                            println!(
                                "opened {path} (stats epoch {}; plan cache and \
                                 feedback cleared)",
                                self.svc.store().catalog().stats_epoch()
                            );
                        }
                        Err(e) => println!("open failed: {e}"),
                    }
                }
                None => println!("\\open PATH — load a \\save snapshot or durability dir"),
            },
            other => println!("unknown command {other:?}; \\help"),
        }
        true
    }

    /// Ends the WAL session (flushing it) and says so; false if none ran.
    fn end_durability(&self) -> bool {
        let was_on = self.svc.disable_durability();
        if was_on {
            println!("durability off (log flushed)");
        }
        was_on
    }

    /// Statically verifies a query's winning plan and every memo expression
    /// (`verify_search`): lints the logical algebra, optimizes, and reports
    /// every diagnostic — or a clean bill.
    fn verify_stmt(&self, src: &str) {
        let Some(q) = self.compile(src) else { return };
        let mut diags = oodb_core::verify::lint_logical(&q.env, &q.plan);
        let mut config = self.svc.config();
        config.verify_search = true;
        let optimizer = OpenOodb::with_config(&q.env, config);
        let searched = match optimizer.optimize_ordered(&q.plan, q.result_vars, q.order) {
            Some(out) => {
                diags.extend(out.diagnostics);
                Some((out.stats, out.cost))
            }
            None => {
                println!("no feasible plan under the current rule configuration");
                None
            }
        };
        self.svc
            .telemetry()
            .counter("oodb_verify_violations_total", &[])
            .add(diags.len() as u64);
        for d in &diags {
            print_diag(d);
        }
        if let Some((stats, cost)) = searched {
            if diags.is_empty() {
                println!(
                    "verify: OK — 0 diagnostics across the winning plan and \
                     {} memo expressions (estimated {:.3} s)",
                    stats.exprs,
                    cost.total()
                );
            } else {
                println!("verify: {} diagnostic(s)", diags.len());
            }
        }
    }

    /// `EXPLAIN AUDIT` / `\audit`: the plan-space auditor on one query —
    /// rule-graph termination proof, exhaustive enumeration with the
    /// winner checked for cost-minimality over the whole space, and the
    /// interval cardinality audit across every enumerated plan.
    fn audit_stmt(&self, src: &str) {
        let Some(q) = self.compile(src) else { return };
        let optimizer = OpenOodb::with_config(&q.env, self.svc.config());
        match optimizer.prove_rules_terminate() {
            Ok(p) => println!(
                "rule graph: {} rules, {} enablement edges, {} in memo-cut \
                 cycles — termination proven",
                p.rules, p.edges, p.cyclic_rules
            ),
            Err(w) => println!("rule graph: TERMINATION UNPROVEN — {w}"),
        }
        let report = optimizer.audit(&q.plan, q.result_vars, q.order, EnumLimits::default());
        let Some(report) = report else {
            println!("no feasible plan under the current rule configuration");
            return;
        };
        println!(
            "enumerated {} plan(s){}; winner estimated {:.6} s, space minimum {:.6} s",
            report.plans_enumerated(),
            if report.truncated {
                " (TRUNCATED at the enumeration limits — verdict void)"
            } else {
                ""
            },
            report.winner_cost,
            report.best_cost
        );
        println!(
            "{}",
            oodb_algebra::display::render_physical(&q.env, &report.winner)
        );
        if report.cost_minimal {
            println!("audit: winner is cost-minimal over the enumerated space");
        } else {
            println!("audit: WINNER NOT PROVEN MINIMAL over the enumerated space");
        }
        if report.interval_diags.is_empty() {
            println!("intervals: every estimate inside its sound [lo, hi] bounds");
        } else {
            println!(
                "intervals: {} estimate(s) escaped their bounds",
                report.interval_diags.len()
            );
            for d in &report.interval_diags {
                print_diag(d);
            }
        }
    }

    /// `EXPLAIN FEEDBACK`: what the drift detector knows about one query —
    /// each predicate's catalog selectivity next to any feedback override,
    /// then the accumulated actual-vs-estimated record.
    fn feedback_stmt(&self, src: &str) {
        let Some(q) = self.compile(src) else { return };
        let fp = oodb_algebra::fingerprint(&q.env, &q.plan, q.result_vars, q.order.as_ref());
        let overlay = self
            .svc
            .feedback()
            .overlay_for(fp.hash, self.svc.store().catalog().stats_epoch());
        let model = OodbModel::new(&q.env, CostParams::default(), self.svc.config());
        let mut preds = Vec::new();
        collect_preds(&q.plan, &mut preds);
        if preds.is_empty() {
            println!("no predicates: nothing for the feedback loop to correct");
        }
        for pid in preds {
            let key = oodb_algebra::overlay::pred_key(&q.env, q.env.preds.pred(pid));
            let catalog_sel = model.selectivity(pid);
            match overlay.as_ref().and_then(|o| o.get(&key)) {
                Some(corrected) => {
                    println!("  {key}: catalog {catalog_sel:.6} -> corrected {corrected:.6}")
                }
                None => println!("  {key}: catalog {catalog_sel:.6}"),
            }
        }
        match self
            .svc
            .feedback_snapshot()
            .into_iter()
            .find(|e| e.fingerprint == fp.hash)
        {
            Some(e) => println!(
                "feedback: {} execution(s), last estimated {:.0} vs actual {}, \
                 worst drift {:.1}x{}{}",
                e.execs,
                e.last_est,
                e.last_actual,
                e.worst_drift,
                if e.suspect { ", SUSPECT" } else { "" },
                if e.overrides > 0 {
                    format!(", {} override(s) active", e.overrides)
                } else {
                    String::new()
                }
            ),
            None => println!("feedback: no executions recorded for this query"),
        }
    }

    /// Shows the goal-level search trace for a query (the paper's
    /// Figure 11 view, live).
    fn trace(&self, src: &str) {
        let Some(q) = self.compile(src) else { return };
        let optimizer = OpenOodb::with_config(&q.env, self.svc.config());
        match optimizer.optimize_traced(&q.plan, q.result_vars, q.order) {
            Some((out, lines)) => {
                for l in &lines {
                    println!("  {l}");
                }
                println!("winner estimated at {:.3} s", out.cost.total());
            }
            None => println!("no feasible plan under the current rule configuration"),
        }
    }

    /// Runs one statement against the connected server; IO failures
    /// drop the connection back to local mode.
    fn remote_statement(&mut self, src: &str) {
        let Some(client) = self.remote.as_mut() else {
            return;
        };
        match client.query(src, Default::default()) {
            Ok(out) => {
                print_rows(&out.rows);
                println!(
                    "{} rows from {} in {} server-side{}{}",
                    out.row_count,
                    client.host(),
                    fmt_ns(out.stages.execute_ns),
                    if out.cache_hit {
                        " [plan cache hit]"
                    } else {
                        ""
                    },
                    if out.degraded { " [degraded]" } else { "" }
                );
            }
            Err(e @ oodb_server::ClientError::Io(_)) => {
                println!("{e} — disconnecting; statements are local again");
                self.remote = None;
            }
            Err(e) => println!("{e}"),
        }
    }

    fn statement(&mut self, stmt: &str) {
        let upper = stmt.to_ascii_uppercase();
        if self.remote.is_some() {
            if upper.starts_with("EXPLAIN") {
                println!("EXPLAIN runs locally (the wire carries results, not plans)");
            } else {
                self.remote_statement(stmt.trim_end_matches(';').trim());
                return;
            }
        }
        // EXPLAIN VERIFY statically checks the plan; EXPLAIN ANALYZE runs
        // the plan and annotates it; bare EXPLAIN only shows the search
        // result.
        let after = |keyword: &str| {
            upper
                .starts_with(keyword)
                .then(|| stmt[keyword.len()..].trim())
        };
        if let Some(src) = after("EXPLAIN VERIFY") {
            self.verify_stmt(src);
        } else if let Some(src) = after("EXPLAIN AUDIT") {
            self.audit_stmt(src);
        } else if let Some(src) = after("EXPLAIN FEEDBACK") {
            self.feedback_stmt(src);
        } else if let Some(src) = after("EXPLAIN ANALYZE") {
            self.submit(src, true);
        } else if let Some(src) = after("EXPLAIN") {
            self.explain(src);
        } else {
            self.submit(stmt, false);
        }
    }

    /// Bare `EXPLAIN` always optimizes fresh: it exists to show the search.
    fn explain(&self, src: &str) {
        let Some(q) = self.compile(src) else { return };
        let optimizer = OpenOodb::with_config(&q.env, self.svc.config());
        let Some(out) = optimizer.optimize_ordered(&q.plan, q.result_vars, q.order) else {
            println!("no feasible plan under the current rule configuration");
            return;
        };
        println!("Logical algebra:");
        println!("{}", oodb_algebra::display::render_logical(&q.env, &q.plan));
        println!(
            "Optimal plan (estimated {:.3} s, {} groups, {} exprs, {:?}, {:?} of it exploring):",
            out.cost.total(),
            out.stats.groups,
            out.stats.exprs,
            out.stats.elapsed,
            out.stats.explore_elapsed
        );
        println!(
            "{}",
            oodb_algebra::display::render_physical(&q.env, &out.plan)
        );
        if let Some(g) = greedy_plan(&q.env, CostParams::default(), &q.plan) {
            println!(
                "Greedy (ObjectStore-style) plan ({:.3} s):",
                g.total_io_s() + g.total_cpu_s()
            );
            println!("{}", oodb_algebra::display::render_physical(&q.env, &g));
        }
    }

    /// Runs one statement through the service — the same pipeline, plan
    /// cache and feedback loop `\serve` traffic uses — and prints the
    /// answer; with `analyze`, the per-operator trace replaces the rows.
    fn submit(&self, src: &str, analyze: bool) {
        let opts = SubmitOptions {
            trace: analyze,
            ..Default::default()
        };
        let out = match self.svc.submit_with(src, opts) {
            Ok(out) => out,
            Err(e @ (ServiceError::Zql(_) | ServiceError::NoPlan | ServiceError::Exec(_))) => {
                println!("{e}");
                return;
            }
            Err(e) => {
                println!("execution failed: {e}");
                return;
            }
        };
        if let Some((est, actual)) = out.drift {
            println!(
                "note: estimate drift {:.1}x (estimated {:.0} rows, observed \
                 {actual}); run the query again to re-optimize with corrected \
                 selectivities",
                drift_ratio(est, actual),
                est.max(0.0),
            );
        }
        let elapsed = match &out.trace {
            Some(trace) => {
                println!("Physical plan (analyzed):");
                print!("{}", trace.render());
                format!(" in {}", fmt_ns(trace.elapsed_ns))
            }
            None => {
                print_rows(&out.rows);
                String::new()
            }
        };
        println!(
            "{} rows{elapsed}; estimated {:.3} s, simulated I/O {:.3} s \
             ({} buffer hits / {} misses){}{}",
            out.row_count,
            out.est_cost_s,
            out.sim_io_s,
            out.buffer_hits,
            out.buffer_misses,
            if out.spill_pages > 0 {
                format!(
                    ", {} spill pages (peak {} B)",
                    out.spill_pages, out.mem_peak_bytes
                )
            } else {
                String::new()
            },
            if out.cache_hit {
                " [plan cache hit]"
            } else {
                ""
            }
        );
    }
}
