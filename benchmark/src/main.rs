//! The repository's benchmark: four workloads, end-to-end metrics with
//! tracing off, per-layer metrics from a traced run. See `README.md`.
//!
//! `oodb-benchmark --workload W --seed N --seconds S --trace 0|1` runs one
//! workload in this process and ends its standard output with one JSON
//! object; `--workload all` runs every workload in both modes, each in a
//! process of its own, and writes `result.json`.

#![forbid(unsafe_code)]

mod derive;
mod env;
mod fixture;
mod layers;
mod metrics;
mod pool;
mod reference;
mod run;
mod speed;
mod stats;
mod trace;

use derive::{gates, per_layer_values, Gate, TracedRun};
use env::{steal_ticks, Environment};
use fixture::{client_count, spec_named, Fixture, Inputs, Kind, Spec, SPECS};
use layers::{prepare_all, run_traced_rep, Shadow, Tally};
use metrics::{json_number, json_string, Measured};
use run::{check_recovery, run_rep, Check, Rep};
use speed::Speed;
use stats::{median, ratio};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const DEFAULT_SEED: u64 = 0x00DB_1993;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 20;
/// A run measures at least this many repetitions, however short `--seconds`.
const MIN_TIMED_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = parse_u64(&value()?).ok_or("--seed takes a whole number")?,
            "--seconds" => {
                args.seconds = parse_u64(&value()?)
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 60")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--out" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// What one run found, ready to print.
struct Outcome {
    attempted: u64,
    failed: u64,
    repetitions: usize,
    /// Per timed repetition: how slow the calibration kernel ran.
    slowdown: Vec<f64>,
    /// Ticks (10 ms, both cores together) the hypervisor took from this
    /// machine while the run measured: what a slow spell usually is.
    steal_ticks: u64,
    /// What the result line holds.
    metrics: Vec<Measured>,
    /// `--trace 0`: the end-to-end metrics that cannot be in the result
    /// line (see `README.md`); `selfcheck.sh` holds them to their bounds.
    further: Vec<Measured>,
    gates: Vec<Gate>,
}

fn single(name: &str, unit: &'static str, value: f64) -> Measured {
    Measured {
        name: name.to_string(),
        unit,
        value,
        raw: None,
        per_repetition: Vec::new(),
        exact: false,
    }
}

/// A timing taken once per repetition: the median over repetitions, in
/// reference time, and beside it the same median of the clock's readings.
fn timing(name: &str, unit: &'static str, reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Measured {
    let per_repetition: Vec<f64> = reps.iter().map(&f).collect();
    let raw: Vec<f64> = reps.iter().map(|r| f(&r.raw())).collect();
    Measured {
        value: median(&per_repetition),
        raw: Some(median(&raw)),
        per_repetition,
        ..single(name, unit, 0.0)
    }
}

/// The set-ups of one run, each in seconds.
struct SetUps {
    reference_s: Vec<f64>,
    raw_s: Vec<f64>,
    /// The part of each that generated the database, reference seconds.
    datagen_s: Vec<f64>,
}

/// Sets the workload up `setup_reps` times and keeps the last fixture,
/// with a kernel run on either side of each set-up.
fn set_up(
    spec: &'static Spec,
    inputs: &Inputs,
    out_dir: &Path,
) -> Result<(Fixture, SetUps), String> {
    let mut ups = SetUps {
        reference_s: Vec::with_capacity(spec.setup_reps),
        raw_s: Vec::with_capacity(spec.setup_reps),
        datagen_s: Vec::with_capacity(spec.setup_reps),
    };
    let mut fixture = None;
    for _ in 0..spec.setup_reps {
        drop(fixture.take());
        let mut speed = Speed::default();
        speed.tick();
        let t = Instant::now();
        let fx = Fixture::build(spec, &inputs.texts, out_dir)?;
        let raw_s = t.elapsed().as_secs_f64();
        speed.tick();
        ups.raw_s.push(raw_s);
        ups.reference_s.push(raw_s / speed.slowdown());
        ups.datagen_s.push(fx.datagen_s / speed.slowdown());
        fixture = Some(fx);
    }
    Ok((fixture.expect("setup_reps is at least 1"), ups))
}

/// A workload set up, its reference answers computed and its warm-up
/// repetition done; what both kinds of run start from.
struct Prepared {
    fx: Fixture,
    inputs: Inputs,
    queries: Vec<fixture::Query>,
    set_ups: SetUps,
    attempted: u64,
    failed: u64,
}

impl Prepared {
    fn new(spec: &'static Spec, args: &Args) -> Result<Prepared, String> {
        let inputs = Inputs::generate(spec, args.seed);
        let (fx, set_ups) = set_up(spec, &inputs, &args.out_dir)?;
        let queries = fx.queries(&inputs);
        let mut p = Prepared {
            fx,
            inputs,
            queries,
            set_ups,
            attempted: 0,
            failed: 0,
        };
        // The first repetition in a process runs 10-20% slow; it is not
        // timed, and checks every row of every answer instead.
        p.untraced_rep(Check::Rows);
        Ok(p)
    }

    /// One repetition with tracing off, counted, and on `mixed_refresh`
    /// followed by the recovery check: acknowledged mutations that did
    /// not survive a crash count as failed.
    fn untraced_rep(&mut self, check: Check) -> Rep {
        let mut rep = run_rep(&mut self.fx, &self.queries, &self.inputs.streams, check);
        if self.fx.spec.kind == Kind::MixedRefresh {
            match check_recovery(&self.fx, &self.queries) {
                Ok(recovery) => rep.raw_recover_s = recovery.recover_ns as f64 / 1e9,
                Err(e) => {
                    eprintln!("recovery check failed: {e}");
                    rep.failed += rep.mutations();
                }
            }
        }
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        rep
    }
}

/// `--trace 0`: the end-to-end metrics.
fn measure_end_to_end(spec: &'static Spec, args: &Args) -> Result<Outcome, String> {
    let mut p = Prepared::new(spec, args)?;
    let budget = Duration::from_secs(args.seconds);
    let (started, steal) = (Instant::now(), steal_ticks());
    let mut reps: Vec<Rep> = Vec::new();
    let mut peak_rss_mb = 0.0;
    while reps.len() < MIN_TIMED_REPS || started.elapsed() < budget {
        reps.push(p.untraced_rep(Check::Count));
        if reps.len() == MIN_TIMED_REPS {
            // Read after the same work in every run: how many more
            // repetitions fit depends on the machine, and memory a
            // later one happens to touch would follow it.
            peak_rss_mb = env::peak_rss_mb();
        }
    }
    let steal_ticks = steal_ticks() - steal;
    eprintln!(
        "{}: {} timed repetitions, each of {} latency samples",
        spec.name,
        reps.len(),
        reps[0].queries()
    );
    let metrics = vec![
        timing("throughput_ops_s", "ops/s", &reps, Rep::throughput),
        timing("query_p50_us", "us", &reps, |r| r.query_us(0.50)),
        timing("cpu_us_per_op", "us", &reps, Rep::cpu_us_per_op),
        single("peak_rss_mb", "MB", peak_rss_mb),
        Measured {
            value: median(&p.set_ups.reference_s),
            raw: Some(median(&p.set_ups.raw_s)),
            per_repetition: p.set_ups.reference_s.clone(),
            ..single("setup_s", "s", 0.0)
        },
    ];
    for (m, def) in metrics.iter().zip(metrics::end_to_end()) {
        assert_eq!(
            (m.name.as_str(), m.unit),
            (def.name.as_str(), def.unit),
            "the result line follows the catalogue"
        );
    }
    let mut further = vec![
        timing("query_p99_us", "us", &reps, |r| r.query_us(0.99)),
        single(
            "failed_ops_ratio",
            "ratio",
            ratio(p.failed as f64, p.attempted as f64),
        ),
    ];
    if spec.kind != Kind::WirePoint {
        // The answer on the wire does not carry it; `storage.sim_io_ms`
        // of the traced run is the same mean.
        further.push(Measured {
            exact: true,
            ..single(
                "plan_sim_io_ms_per_query",
                "sim_ms",
                ratio(reps[0].sim_io_s * 1e3, reps[0].queries() as f64),
            )
        });
    }
    if spec.kind == Kind::MixedRefresh {
        further.extend([
            timing("mutation_p50_us", "us", &reps, |r| r.mutation_us(0.50)),
            timing("recover_s", "s", &reps, Rep::recover_s),
            Measured {
                exact: true,
                ..single(
                    "wal_bytes_per_mutation",
                    "bytes",
                    ratio(reps[0].wal_bytes as f64, reps[0].mutations() as f64),
                )
            },
        ]);
    }
    Ok(Outcome {
        attempted: p.attempted,
        failed: p.failed,
        repetitions: reps.len(),
        slowdown: reps.iter().map(|r| r.slowdown).collect(),
        steal_ticks,
        metrics,
        further,
        gates: Vec::new(),
    })
}

/// `--trace 1`: the per-layer metrics. Untraced repetitions for the first
/// two fifths of the time (what tracing costs is measured against them),
/// traced ones after.
fn measure_layers(spec: &'static Spec, args: &Args) -> Result<Outcome, String> {
    let mut p = Prepared::new(spec, args)?;
    let budget = Duration::from_secs(args.seconds);
    let (started, steal) = (Instant::now(), steal_ticks());
    let mut traced = TracedRun {
        kind: spec.kind,
        spans: Vec::new(),
        first: Tally::default(),
        all: Tally::default(),
        untraced_wall_s: Vec::new(),
        untraced_throughput: Vec::new(),
        traced_wall_s: Vec::new(),
        datagen_s: median(&p.set_ups.datagen_s),
    };
    while traced.untraced_wall_s.len() < 2 || started.elapsed() < budget * 2 / 5 {
        let rep = p.untraced_rep(Check::Count);
        traced.untraced_wall_s.push(rep.wall_s());
        traced.untraced_throughput.push(rep.throughput());
    }
    let prepared = prepare_all(&mut p.fx, &p.queries)?;
    let shadow = Shadow::default();
    let epoch = Instant::now();
    while traced.traced_wall_s.is_empty() || started.elapsed() < budget {
        let index = traced.traced_wall_s.len() as u64;
        let (rep, mut spans, mut tally) = run_traced_rep(
            &mut p.fx,
            &shadow,
            &p.queries,
            &p.inputs.streams,
            &prepared,
            epoch,
            index,
        );
        p.attempted += rep.attempted;
        p.failed += rep.failed;
        traced.traced_wall_s.push(rep.wall_s());
        if index == 0 {
            // One repetition's spans go to the trace file, as the clock
            // read them; later ones only feed the percentiles.
            write_file(
                &args.out_dir.join(format!("trace-{}.jsonl", spec.name)),
                &trace::to_jsonl(&spans),
            )?;
        }
        // From here on the repetition's clock readings are in reference
        // time, like the end-to-end metrics they are set against. A
        // repetition is rescaled as a whole: its spans are set against
        // each other, so they share one divisor.
        spans.iter_mut().for_each(|s| s.rescale(rep.slowdown));
        tally.rescale_clocks(rep.slowdown);
        if index == 0 {
            traced.first = tally.clone();
        }
        traced.all.absorb(&tally);
        traced.spans.extend(spans);
    }
    let values = per_layer_values(&traced);
    let metrics = metrics::per_layer()
        .iter()
        .zip(values)
        .map(|(def, (name, value))| {
            assert_eq!(
                def.name, name,
                "per_layer_values follows the catalogue's order"
            );
            Measured {
                exact: def.exact,
                ..single(&name, def.unit, value)
            }
        })
        .collect();
    Ok(Outcome {
        attempted: p.attempted,
        failed: p.failed,
        repetitions: traced.traced_wall_s.len(),
        slowdown: Vec::new(),
        steal_ticks: steal_ticks() - steal,
        metrics,
        further: Vec::new(),
        gates: gates(&traced),
    })
}

fn write_file(path: &Path, content: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, content).map_err(|e| format!("{}: {e}", path.display()))
}

/// One metric of the run's record: its value, what the clock read where
/// that differs, and its spread over repetitions.
fn metric_json(m: &Measured) -> String {
    let raw = m.raw.map_or(String::new(), |raw| {
        format!(", \"raw\": {}", json_number(raw))
    });
    let spread = m.range().map_or(String::new(), |(lo, hi)| {
        let each: Vec<String> = m.per_repetition.iter().map(|&v| json_number(v)).collect();
        format!(
            ", \"min\": {}, \"max\": {}, \"per_repetition\": [{}]",
            json_number(lo),
            json_number(hi),
            each.join(", ")
        )
    });
    format!(
        "    {}: {{\"value\": {}, \"unit\": {}, \"exact\": {}{raw}{spread}}}",
        json_string(&m.name),
        json_number(m.value),
        json_string(m.unit),
        m.exact
    )
}

/// The run's full record: environment, parameters, every metric with its
/// spread over repetitions, and the gates.
fn detail_json(spec: &Spec, args: &Args, environment: &Environment, outcome: &Outcome) -> String {
    let listed = |metrics: &[Measured]| -> String {
        metrics
            .iter()
            .map(metric_json)
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let gates: Vec<String> = outcome
        .gates
        .iter()
        .map(|g| {
            format!(
                "    {{\"name\": {}, \"value\": {}, \"min\": {}, \"max\": {}, \"passed\": {}}}",
                json_string(g.name),
                json_number(g.value),
                json_number(g.min),
                json_number(g.max),
                g.passed()
            )
        })
        .collect();
    format!(
        "{{\n  \"workload\": {}, \"trace\": {}, \"seed\": {}, \"seconds\": {},\n  \
         \"environment\": {{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_hash\": {}, \
         \"loadavg_1m\": {}, \"loaded\": {}}},\n  \
         \"parameters\": {{\"scale_div\": {}, \"ops_per_repetition_per_client\": {}, \"clients\": {}, \
         \"setup_repetitions\": {}}},\n  \
         \"repetitions\": {}, \"attempted\": {}, \"failed\": {}, \"correct\": {},\n  \
         \"slowdown_per_repetition\": [{}], \"steal_ticks\": {},\n  \
         \"metrics\": {{\n{}\n  }},\n  \"further_end_to_end\": {{\n{}\n  }},\n  \"gates\": [\n{}\n  ]\n}}\n",
        json_string(spec.name),
        u8::from(args.trace),
        args.seed,
        args.seconds,
        environment.nproc,
        json_string(&environment.cpu_model),
        json_string(&environment.rustc),
        json_string(&environment.git_hash),
        json_number(environment.loadavg_1m),
        environment.loaded(),
        spec.scale_div,
        spec.ops_per_rep,
        client_count(spec.kind),
        spec.setup_reps,
        outcome.repetitions,
        outcome.attempted,
        outcome.failed,
        outcome.failed == 0,
        outcome.slowdown.iter().map(|&v| json_number(v)).collect::<Vec<_>>().join(", "),
        outcome.steal_ticks,
        listed(&outcome.metrics),
        listed(&outcome.further),
        gates.join(",\n"),
    )
}

fn detail_path(out_dir: &Path, workload: &str, trace: bool) -> PathBuf {
    out_dir.join(format!("{workload}-trace{}.json", u8::from(trace)))
}

fn run_one(spec: &'static Spec, args: &Args) -> Result<bool, String> {
    let environment = Environment::capture();
    if environment.loaded() {
        eprintln!(
            "warning: 1-minute load average {} on {} cores; timings in this run are marked loaded",
            environment.loadavg_1m, environment.nproc
        );
    }
    let outcome = if args.trace {
        measure_layers(spec, args)?
    } else {
        measure_end_to_end(spec, args)?
    };
    for m in outcome.metrics.iter().chain(&outcome.further) {
        let raw = m
            .raw
            .filter(|&raw| raw != m.value)
            .map_or(String::new(), |raw| format!("; the clock read {raw}"));
        let spread = m.range().map_or(String::new(), |(lo, hi)| {
            format!(
                "  (min {lo} max {hi} over {} repetitions{raw})",
                m.per_repetition.len()
            )
        });
        println!(
            "{} {} {} {}{spread}",
            spec.name,
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    // Reported, not enforced: see `derive::gates`.
    for g in &outcome.gates {
        let verdict = if g.passed() { "ok" } else { "FAILED" };
        eprintln!(
            "gate {verdict}: {} {}: {:.4} (allowed {}..{})",
            spec.name, g.name, g.value, g.min, g.max
        );
    }
    write_file(
        &detail_path(&args.out_dir, spec.name, args.trace),
        &detail_json(spec, args, &environment, &outcome),
    )?;
    println!(
        "{}",
        metrics::result_line(
            outcome.failed == 0,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    Ok(outcome.failed == 0)
}

/// Every workload, tracing off and on, each in a process of its own so
/// that peak memory and the first-repetition effect belong to one workload.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    let mut details = Vec::new();
    for spec in &SPECS {
        for trace in [false, true] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", spec.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out_dir)
                .status()
                .map_err(|e| format!("starting {}: {e}", exe.display()))?;
            ok &= status.success();
            let path = detail_path(&args.out_dir, spec.name, trace);
            if let Ok(detail) = std::fs::read_to_string(&path) {
                details.push(detail.trim_end().to_string());
            }
        }
    }
    let result = args.out_dir.join("result.json");
    write_file(
        &result,
        &format!("{{\"runs\": [\n{}\n]}}\n", details.join(",\n")),
    )?;
    eprintln!("wrote {}", result.display());
    Ok(ok)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\nusage: oodb-benchmark [--workload NAME|all] [--seed N] [--seconds 1..60] [--trace 0|1] [--out DIR]");
            return ExitCode::from(2);
        }
    };
    let done = if args.workload == "all" {
        run_all(&args)
    } else {
        match spec_named(&args.workload) {
            Some(spec) => run_one(spec, &args),
            None => Err(format!(
                "unknown workload {}; the workloads are {}",
                args.workload,
                SPECS.map(|s| s.name).join(", ")
            )),
        }
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::from(1)
        }
    }
}
