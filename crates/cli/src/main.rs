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
//!
//! This file is the read loop and statement dispatch; [`commands`] holds
//! the backslash commands and [`explain`] the `EXPLAIN` family.

#![forbid(unsafe_code)]

mod commands;
mod explain;

use oodb_core::{drift_ratio, CostParams, OptimizerConfig};
use oodb_service::{QueryService, ServiceError, SubmitOptions};
use oodb_storage::{generate_paper_db, GenConfig, Store};
use oodb_telemetry::fmt_ns;
use std::io::{BufRead, Write};

/// Ends the summary line of a statement the plan cache served.
const CACHE_HIT: &str = " [plan cache hit]";

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

/// The next of `args` — a command's or the command line's — if it parses.
fn arg<T: std::str::FromStr>(mut args: impl Iterator<Item = impl AsRef<str>>) -> Option<T> {
    args.next().and_then(|s| s.as_ref().parse().ok())
}

/// The value after `name` on the command line, if it parses.
fn flag<T: std::str::FromStr>(name: &str) -> Option<T> {
    arg(std::env::args().skip_while(|a| a != name).skip(1))
}

fn main() {
    let scale: u64 = flag("--scale").unwrap_or(10);
    // `--hot-names F` skews the Employees set so a fraction F share one
    // name while the catalog still assumes uniformity — a ready-made
    // estimate-drift fixture for exercising the feedback loop.
    let hot_names: f64 = flag("--hot-names").unwrap_or(0.0);
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
        let prompt = if buffer.is_empty() {
            "oodb> "
        } else {
            "  ..> "
        };
        print!("{prompt}");
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
                    if out.cache_hit { CACHE_HIT } else { "" },
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
            if out.cache_hit { CACHE_HIT } else { "" }
        );
    }
}
