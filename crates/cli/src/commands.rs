//! The backslash commands: catalog listings, optimizer and service
//! switches, serving and connecting, durability and snapshots.

use crate::{arg, service_over, Shell};
use oodb_core::OptimizerConfig;
use oodb_mem::MemoryGovernor;
use oodb_object::FieldKind;
use oodb_server::{Client, Server};
use oodb_service::FlushPolicy;
use oodb_storage::{FaultConfig, FaultInjector};

impl Shell {
    /// Edits the service's optimizer configuration in place.
    fn update_config<R>(&self, edit: impl FnOnce(&mut OptimizerConfig) -> R) {
        let mut config = self.svc.config();
        edit(&mut config);
        self.svc.set_config(config);
    }

    /// Handles a backslash command; returns false to quit.
    pub(crate) fn command(&mut self, line: &str) -> bool {
        let mut parts = line.split_whitespace();
        let store = self.svc.store();
        let (schema, catalog) = (store.schema(), store.catalog());
        match parts.next().unwrap_or("") {
            "\\q" => return false,
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
                     \\save DIR            snapshot the database into DIR (checkpoint + empty log)\n\
                     \\open DIR            recover a \\save or \\durability directory\n\
                     \\q                   quit"
                );
            }
            "\\schema" => {
                for (ty, def) in schema.types() {
                    let fields: Vec<String> = schema
                        .fields_of(ty)
                        .into_iter()
                        .map(|f| {
                            let name = &schema.field(f).name;
                            match schema.field(f).kind {
                                FieldKind::Attr(a) => format!("{name}: {a:?}"),
                                FieldKind::Ref(t) => format!("{name} -> {}", schema.ty(t).name),
                                FieldKind::RefSet(t) => {
                                    format!("{name} -> {{{}}}", schema.ty(t).name)
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
                (Some(verb @ ("off" | "on")), Some(name)) => {
                    match oodb_core::config::rule_name_by_str(name) {
                        Some(rule) if verb == "off" => {
                            self.update_config(|c| c.disabled_rules.insert(rule));
                            println!("disabled {rule}");
                        }
                        Some(rule) => {
                            self.update_config(|c| c.disabled_rules.remove(rule));
                            println!("enabled {rule}");
                        }
                        None => println!("unknown rule {name:?} — see \\rules"),
                    }
                }
                (Some("reset"), _) => {
                    self.svc.set_config(OptimizerConfig::all_rules());
                    println!("rules reset to the default set");
                }
                _ => {
                    let config = self.svc.config();
                    for name in oodb_core::rules::names() {
                        let state = if config.enabled(name) { "on " } else { "OFF" };
                        println!("{state} {name}");
                    }
                }
            },
            "\\window" => {
                if let Some(n) = arg(&mut parts) {
                    self.update_config(|c| c.assembly_window = n);
                }
                println!("assembly window = {}", self.svc.config().assembly_window);
            }
            "\\trace" => match line.split_once(' ') {
                Some((_, src)) => self.trace(src),
                None => println!("usage: \\trace SELECT ... ;"),
            },
            "\\stats" => {
                // Logged before it is applied when durability is on. Only
                // a changed histogram bumps the epoch, which retires
                // cached plans and stale feedback.
                let moved = self.svc.refresh_statistics(32);
                let store = self.svc.store();
                let count = store.catalog().histogram_count();
                let epoch = store.catalog().stats_epoch();
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
                Some(addr) => match Server::start(self.svc.clone(), addr, Default::default()) {
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
                Some(addr) => match Client::connect(addr.to_string()) {
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
                    let rate = arg(&mut parts).unwrap_or(0.05_f64).clamp(0.0, 1.0);
                    let seed: u64 = arg(&mut parts).unwrap_or(0x00DB);
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
                None | Some("stats") => match self.svc.fault_injector() {
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
                    let bytes: u64 = arg(&mut parts).unwrap_or(1 << 20).max(1);
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
                None | Some("stats") => match self.svc.memory_governor() {
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
                Some("on") => {
                    let dir = parts.next();
                    let policy = match (parts.next(), parts.next().map(str::parse)) {
                        (Some("batch"), Some(Ok(n))) if n > 0 => Some(FlushPolicy::Batch(n)),
                        // A batch of zero, or of no number, enables nothing.
                        (Some("batch"), _) => None,
                        (Some("manual"), _) => Some(FlushPolicy::Manual),
                        _ => Some(FlushPolicy::EveryRecord),
                    };
                    match (dir, policy) {
                        (Some(dir), Some(policy)) => match self
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
                        },
                        _ => println!("\\durability on DIR [batch N | manual]"),
                    }
                }
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
            // A snapshot is what `\durability on` writes, a checkpoint
            // and an empty log, so `\open` has one loader for both.
            "\\save" => match parts.next() {
                Some(dir) => match oodb_wal::WalSession::create(
                    std::path::Path::new(dir),
                    &store,
                    FlushPolicy::EveryRecord,
                    None,
                ) {
                    Ok(session) => {
                        let s = session.stats();
                        println!(
                            "saved {} records ({} bytes) to {dir}",
                            s.checkpoint_records, s.checkpoint_bytes
                        )
                    }
                    Err(e) => println!("save failed: {e}"),
                },
                None => println!("\\save DIR — snapshot the database into a directory"),
            },
            "\\open" => match parts.next() {
                // A served database cannot change identity under its
                // clients.
                Some(_) if self.server.is_some() => {
                    println!("cannot \\open while serving; \\serve stop first")
                }
                Some(dir) => match oodb_wal::recover(std::path::Path::new(dir)) {
                    Ok((store, report)) => {
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
                        // The old session logged the old database; it
                        // must not see the new one's mutations.
                        self.end_durability();
                        self.svc = service_over(store, self.svc.config());
                        println!(
                            "opened {dir} (stats epoch {}; plan cache and \
                             feedback cleared)",
                            self.svc.store().catalog().stats_epoch()
                        );
                    }
                    Err(e) => println!("open failed: {e}"),
                },
                None => println!("\\open DIR — recover a \\save or \\durability directory"),
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
}
