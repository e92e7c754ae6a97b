//! End-user test: drive the `oodb` shell binary through a pipe, the way a
//! person would, and check the full stack answers.

use std::io::Write;
use std::process::{Command, Stdio};

fn run_shell(input: &str) -> String {
    run_shell_with(&["--scale", "100"], input)
}

fn run_shell_with(args: &[&str], input: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_oodb"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("shell starts");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(input.as_bytes())
        .expect("write");
    let out = child.wait_with_output().expect("shell exits");
    assert!(out.status.success(), "shell exited with {:?}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn queries_execute_and_explain() {
    let out = run_shell(
        r#"SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe";
EXPLAIN SELECT t FROM Task t IN Tasks WHERE t.time() == 100;
\q
"#,
    );
    assert!(out.contains("rows;"), "execution summary expected:\n{out}");
    assert!(
        out.contains("Optimal plan"),
        "EXPLAIN output expected:\n{out}"
    );
    assert!(out.contains("Logical algebra:"), "{out}");
}

#[test]
fn rule_toggles_change_plans() {
    let out = run_shell(
        r#"\rules off collapse-to-index-scan
\rules off mat-to-join
EXPLAIN SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe";
\rules reset
EXPLAIN SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe";
\q
"#,
    );
    assert!(out.contains("disabled collapse-to-index-scan"), "{out}");
    // First EXPLAIN (rules off) must assemble; second must use the index.
    let first = out.find("Assembly").expect("naive plan assembles");
    let second = out.rfind("Index Scan").expect("reset plan uses index");
    assert!(first < second, "order of plans:\n{out}");
}

/// `\trace` traces the search `EXPLAIN` reports and the service runs:
/// the query's `ORDER BY` is a goal of it, so both name one winner cost.
#[test]
fn trace_searches_for_the_order_explain_does() {
    let q = "SELECT c FROM c IN Cities WHERE c.population() >= 1000 ORDER BY c.population();";
    let out = run_shell(&format!("EXPLAIN {q}\n\\trace {q}\n\\q\n"));
    let after = |marker: &str| {
        let at = out
            .find(marker)
            .unwrap_or_else(|| panic!("{marker:?} in:\n{out}"));
        let rest = &out[at + marker.len()..];
        rest[..rest.find(" s").expect("a cost in seconds")].to_string()
    };
    assert!(out.contains("Sort by c.population"), "{out}");
    assert!(out.contains("ordered by c.population"), "{out}");
    assert_eq!(
        after("Optimal plan (estimated "),
        after("winner estimated at "),
        "{out}"
    );
}

/// `\rules` is the one switch of every rule it lists, the one rule that
/// is off by default included.
#[test]
fn warm_assembly_is_switched_by_its_rule_name() {
    let out = run_shell(
        r#"\rules
\rules off collapse-to-index-scan
\rules on warm-assembly
EXPLAIN SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe";
\rules reset
\rules
\q
"#,
    );
    let listed_off = out.match_indices("OFF warm-assembly").count();
    assert_eq!(listed_off, 2, "off at the start and after reset:\n{out}");
    let enabled = out.find("enabled warm-assembly").expect("switched on");
    let plan = out.find("Warm Assembly c.mayor").expect("and planned with");
    let reset = out.rfind("OFF warm-assembly").expect("off again");
    assert!(enabled < plan && plan < reset, "{out}");
}

/// Queries 1–4 through `EXPLAIN VERIFY`: the winning plan and every memo
/// expression lint clean.
#[test]
fn explain_verify_reports_the_paper_corpus_clean() {
    let out = run_shell(
        r#"EXPLAIN VERIFY SELECT Newobject(e.name(), e.job().name(), e.dept().name()) FROM Employee e IN Employees WHERE e.dept().plant().location() == "Dallas";
EXPLAIN VERIFY SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe";
EXPLAIN VERIFY SELECT Newobject(c.mayor().age(), c.name()) FROM City c IN Cities WHERE c.mayor().name() == "Joe";
EXPLAIN VERIFY SELECT t FROM Task t IN Tasks WHERE t.time() == 100 && EXISTS (SELECT m FROM m IN t.team_members() WHERE m.name() == "Fred");
\q
"#,
    );
    assert_eq!(out.matches("verify: OK").count(), 4, "{out}");
    assert!(!out.contains("diagnostic(s)"), "{out}");
}

#[test]
fn catalog_and_error_reporting() {
    let out = run_shell(
        r#"\catalog
SELECT x FROM x IN Nowhere;
SELECT c FROM c IN Cities WHERE c.name() == 3;
\q
"#,
    );
    assert!(out.contains("Employees"), "{out}");
    assert!(out.contains("unknown collection"), "{out}");
    assert!(
        out.contains("incomparable") || out.contains("cannot compare"),
        "{out}"
    );
}

/// A query past the 64 variables a scope arena holds is a printed front-end
/// error: the shell keeps reading and runs the next command.
#[test]
fn a_query_past_64_variables_is_an_error_not_a_crash() {
    let from: Vec<String> = (0..65).map(|i| format!("City c{i} IN Cities")).collect();
    let q = format!(
        r#"SELECT c0 FROM {} WHERE c0.name() == "x";"#,
        from.join(", ")
    );
    let out = run_shell(&format!("EXPLAIN {q}\n\\catalog\n\\q\n"));
    let refused = out
        .find("more than 64 scope variables")
        .expect("a typed error");
    let next = out.find("histograms collected").expect("the next command");
    assert!(refused < next, "{out}");
}

/// The first `\stats` collects histograms the catalog lacked and moves the
/// epoch; a second over the same data finds them equal, and the plan
/// cached in between is served after it.
#[test]
fn stats_collection_reports() {
    let q = "SELECT t FROM Task t IN Tasks WHERE t.time() == 100;";
    let out = run_shell(&format!("\\stats\n{q}\n\\stats\n{q}\n\\q\n"));
    let mut at = 0;
    for want in [
        "histograms; selectivity estimation refined (stats epoch ",
        "cached plans will re-optimize)",
        "rows;",
        "histograms; statistics unchanged, cached plans kept (stats epoch ",
        "[plan cache hit]",
    ] {
        match out[at..].find(want) {
            Some(i) => at += i + want.len(),
            None => panic!("{want:?} expected after byte {at}:\n{out}"),
        }
    }
}

#[test]
fn explain_analyze_annotates_operators() {
    let out = run_shell(
        r#"EXPLAIN ANALYZE SELECT t FROM Task t IN Tasks WHERE t.time() == 100;
explain analyze SELECT t FROM Task t IN Tasks WHERE t.time() == 100;
\q
"#,
    );
    assert!(out.contains("Physical plan (analyzed):"), "{out}");
    assert!(
        out.contains("actual rows="),
        "per-operator annotations expected:\n{out}"
    );
    assert!(out.contains("buf hit/miss="), "{out}");
    assert!(out.contains("rows in "), "summary line expected:\n{out}");
    assert!(
        out.contains("[plan cache hit]"),
        "second analyze should hit the plan cache:\n{out}"
    );
}

#[test]
fn metrics_dump_is_prometheus_text() {
    let out = run_shell(
        r#"SELECT t FROM Task t IN Tasks WHERE t.time() == 100;
\metrics
\q
"#,
    );
    assert!(
        out.contains("# TYPE oodb_submissions_total counter"),
        "{out}"
    );
    assert!(out.contains("oodb_submissions_total 1"), "{out}");
    assert!(
        out.contains(r#"oodb_stage_latency_ns_count{stage="execute"} 1"#),
        "{out}"
    );
    // Histograms must expose their `_sum` series alongside `_count` —
    // without it a scraper cannot compute average latency.
    assert!(
        out.contains(r#"oodb_stage_latency_ns_sum{stage="execute"}"#),
        "histogram _sum series expected:\n{out}"
    );
    // Every exposition line is either a comment or `name{labels} value`.
    let dump_start = out.find("# TYPE").expect("exposition present");
    for line in out[dump_start..].lines() {
        if line.starts_with('#') || line.is_empty() || !line.contains("oodb_") {
            continue;
        }
        if line.starts_with("oodb_") {
            let mut halves = line.rsplitn(2, ' ');
            let value = halves.next().expect("value column");
            assert!(
                value.parse::<f64>().is_ok(),
                "unparsable sample value in {line:?}"
            );
        }
    }
}

#[test]
fn mem_governor_toggles_spills_and_reports() {
    let out = run_shell(
        r#"\mem stats
\mem on 512
\rules off pointer-join
\rules off merge-join
EXPLAIN ANALYZE SELECT Newobject(e.name(), d.name()) FROM Employee e IN Employees, Department d IN Department WHERE e.dept() == d;
\mem stats
\mem off
\mem stats
\q
"#,
    );
    assert!(out.contains("no memory governor attached"), "{out}");
    assert!(
        out.contains("memory governor on: 512 bytes capacity"),
        "{out}"
    );
    // A 500-row hash join under a 512-byte governor must overflow: the
    // analyze summary and the governor ledger both say so.
    assert!(
        out.contains("spill pages (peak "),
        "spill summary expected:\n{out}"
    );
    assert!(out.contains("spill=") && out.contains(" pages)"), "{out}");
    assert!(
        out.contains("memory governor: 0/512 bytes reserved"),
        "{out}"
    );
    assert!(out.contains("memory governor off"), "{out}");
    let after_off = out.rfind("no memory governor attached");
    assert!(after_off > out.find("memory governor off"), "{out}");
}

#[test]
fn fault_injection_toggles_and_reports() {
    let out = run_shell(
        r#"\faults on 1.0 7
SELECT t FROM Task t IN Tasks WHERE t.time() == 100;
\faults stats
\faults off
SELECT t FROM Task t IN Tasks WHERE t.time() == 100;
\faults stats
\q
"#,
    );
    assert!(
        out.contains("fault injection on: read fault rate 1, seed 7"),
        "{out}"
    );
    // At rate 1.0 the very first page read faults, as a typed error — the
    // shell keeps running instead of panicking.
    assert!(
        out.contains("execution failed") && out.contains("storage fault"),
        "fault should surface as a printed error:\n{out}"
    );
    assert!(out.contains("fault injector enabled"), "{out}");
    assert!(out.contains("fault injection off"), "{out}");
    // After detaching, the same query runs to completion.
    assert!(
        out.contains("rows;"),
        "query should succeed once off:\n{out}"
    );
    assert!(out.contains("no fault injector attached"), "{out}");
}

#[test]
fn feedback_ladder_runs_end_to_end_in_the_shell() {
    // `--hot-names 0.5` skews Employees so half share one name while the
    // catalog still claims ~1% — the hot-key query drifts ~50x. Four
    // plain executions walk the full ladder: detect → evict → probe →
    // re-optimize, with no EXPLAIN ANALYZE anywhere.
    let out = run_shell_with(
        &["--scale", "100", "--hot-names", "0.5"],
        r#"SELECT e FROM Employee e IN Employees WHERE e.name() == "Fred";
SELECT e FROM Employee e IN Employees WHERE e.name() == "Fred";
SELECT e FROM Employee e IN Employees WHERE e.name() == "Fred";
SELECT e FROM Employee e IN Employees WHERE e.name() == "Fred";
\feedback stats
EXPLAIN FEEDBACK SELECT e FROM Employee e IN Employees WHERE e.name() == "Fred";
\feedback clear
\feedback stats
\q
"#,
    );
    assert!(
        out.contains("note: estimate drift"),
        "untraced drift note expected:\n{out}"
    );
    assert!(out.contains("SUSPECT"), "suspect marker expected:\n{out}");
    assert!(
        out.contains("override(s)"),
        "probe should have recorded overrides:\n{out}"
    );
    assert!(
        out.contains("-> corrected"),
        "EXPLAIN FEEDBACK should show corrected selectivities:\n{out}"
    );
    assert!(out.contains("feedback cleared"), "{out}");
    // After the clear, the stats line reports an empty store.
    assert!(
        out.rfind("0 fingerprints tracked").is_some(),
        "cleared store expected:\n{out}"
    );
}

/// `EXPLAIN` searches with the optimizer a cache miss builds: once the
/// feedback ladder has corrected the hot-key query's estimates, the plan
/// it prints is the one `EXPLAIN ANALYZE` runs, operator for operator.
#[test]
fn explain_after_the_feedback_ladder_shows_the_plan_the_service_runs() {
    let q = r#"SELECT e FROM Employee e IN Employees WHERE e.name() == "Fred";"#;
    let script = format!("{q}\n{q}\n{q}\n{q}\nEXPLAIN ANALYZE {q}\nEXPLAIN {q}\n\\q\n");
    let out = run_shell_with(&["--scale", "100", "--hot-names", "0.5"], &script);
    // The operator lines under `header`, each cut before its annotation.
    let plan_after = |header: &str| -> Vec<String> {
        let at = out
            .find(header)
            .unwrap_or_else(|| panic!("{header:?} in:\n{out}"));
        let body = out[at..].lines().skip(1);
        // A plan ends at a blank line or at its summary ("276 rows ...").
        let ops =
            body.take_while(|l| !l.is_empty() && !l.starts_with(|c: char| c.is_ascii_digit()));
        ops.filter(|l| *l != "|")
            .map(|l| l.split("  (actual").next().unwrap_or(l).to_string())
            .collect()
    };
    let ran = plan_after("Physical plan (analyzed):");
    assert_eq!(plan_after("Optimal plan"), ran, "{out}");
    assert_eq!(
        ran.last().map(String::as_str),
        Some("File Scan Employees: e")
    );
}

/// A fresh scratch directory for one test (under cargo's target tmpdir).
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn remaining_commands_smoke() {
    let dir = scratch("smoke");
    let (wal, wal2, snap) = (dir.join("wal"), dir.join("wal2"), dir.join("snap"));
    let q = "SELECT t FROM Task t IN Tasks WHERE t.time() == 100;";
    let fig2 = "SELECT c FROM City c IN Cities WHERE c.mayor().name() == \
                c.country().president().name() && c.population() > 1500000;";
    // One command per row, with one stable substring of its answer.
    let table: Vec<(String, &str)> = vec![
        ("\\help".into(), "\\rules [off NAME | on NAME | reset]"),
        ("\\rules".into(), "OFF warm-assembly"),
        ("\\rules off filter".into(), "disabled filter"),
        ("\\rules on warm-assembly".into(), "enabled warm-assembly"),
        ("\\rules".into(), "OFF filter"),
        ("\\rules off bogus".into(), "unknown rule \"bogus\""),
        ("\\rules reset".into(), "rules reset to the default set"),
        ("\\rules".into(), "on  filter"),
        ("\\feedback".into(), "feedback: 0 fingerprints tracked"),
        ("\\feedback bogus".into(), "\\feedback [stats|clear]"),
        ("\\metrics".into(), "oodb_submissions_total 0"),
        ("\\faults".into(), "no fault injector attached"),
        ("\\faults on 0 3".into(), "read fault rate 0, seed 3"),
        (
            "\\faults stats".into(),
            "fault injector enabled: 0 injected",
        ),
        ("\\faults off".into(), "fault injection off"),
        ("\\mem".into(), "no memory governor attached"),
        ("\\mem on 4096".into(), "memory governor on: 4096 bytes"),
        (
            "\\mem stats".into(),
            "memory governor: 0/4096 bytes reserved",
        ),
        ("\\mem off".into(), "memory governor off"),
        (
            "\\cache stats".into(),
            "plan cache: 0 entries, 0 hits, 0 misses",
        ),
        (q.into(), "rows;"),
        (q.into(), "[plan cache hit]"),
        ("\\cache".into(), "1 entries, 1 hits, 1 misses"),
        ("\\cache clear".into(), "plan cache cleared"),
        (q.into(), "rows;"),
        (
            "\\schema".into(),
            "Task { title: Str, time: Int, team_members -> {Employee} }",
        ),
        ("\\indexes".into(), "on Tasks (time) distinct 20"),
        ("\\window 4".into(), "assembly window = 4"),
        (format!("\\trace {q}"), "-> won by"),
        (
            format!("EXPLAIN AUDIT {q}"),
            "audit: winner is cost-minimal",
        ),
        (
            format!("EXPLAIN AUDIT {fig2}"),
            "27408 plan(s), over the enumeration bound: none built",
        ),
        (
            format!("\\durability on {} batch x", wal.display()),
            "\\durability on DIR [batch N | manual]",
        ),
        (
            format!("\\durability on {} batch 0", wal.display()),
            "\\durability on DIR [batch N | manual]",
        ),
        ("\\durability".into(), "durability is off"),
        (
            format!("\\durability on {} batch 4", wal.display()),
            "(Batch(4) flushes)",
        ),
        ("\\stats".into(), "collected 3 histograms"),
        ("\\wal stats".into(), "wal: 1 records"),
        ("\\wal checkpoint".into(), "log reset at seq 1"),
        ("\\wal".into(), "1 log records compacted this session"),
        ("\\durability off".into(), "durability off (log flushed)"),
        (
            format!("\\durability on {} manual", wal2.display()),
            "(Manual flushes)",
        ),
        ("\\durability".into(), "durability is on ("),
        ("\\durability off".into(), "durability off (log flushed)"),
        ("\\wal stats".into(), "durability is off"),
        (format!("\\save {}", snap.display()), "saved 23 records"),
        (format!("\\open {}", snap.display()), "opened "),
        ("\\catalog".into(), "histograms collected: 3"),
    ];
    let script: String = table.iter().map(|(cmd, _)| format!("{cmd}\n")).collect();
    let out = run_shell(&(script + "\\q\n"));
    // Answers appear in command order, so each search resumes where the
    // previous one matched.
    let mut at = 0;
    for (cmd, want) in &table {
        match out[at..].find(want) {
            Some(i) => at += i + want.len(),
            None => panic!("{cmd:?} should print {want:?} after byte {at}:\n{out}"),
        }
    }
}

#[test]
fn open_ends_the_durability_session_before_swapping_stores() {
    let dir = scratch("open_ends_durability");
    let (wal, snap) = (dir.join("wal"), dir.join("snap"));
    let out = run_shell(&format!(
        "\\save {snap}\n\\durability on {wal}\n\\open {snap}\n\\stats\n\\wal stats\n\\q\n",
        snap = snap.display(),
        wal = wal.display()
    ));
    let opened = out.find("opened ").expect("snapshot opens");
    let off = out
        .find("durability off")
        .expect("open reports the session's end");
    assert!(off < opened, "session must end before the swap:\n{out}");
    assert!(out.contains("durability is off"), "{out}");
    // The directory still holds exactly the database it checkpointed: the
    // \stats above belonged to the opened snapshot and was never logged.
    let out = run_shell(&format!("\\open {}\n\\catalog\n\\q\n", wal.display()));
    assert!(
        out.contains("recovered: 23 checkpoint + 0 log records"),
        "{out}"
    );
    assert!(out.contains("histograms collected: 0"), "{out}");
}

/// `\connect` sends statements to a server this test process runs;
/// `\disconnect` brings them back to the shell's own database.
#[test]
fn connect_runs_statements_remotely_until_disconnect() {
    let (store, _) = oodb_storage::generate_paper_db(oodb_storage::GenConfig {
        scale_div: 100,
        ..Default::default()
    });
    let svc = oodb_service::QueryService::new(
        store,
        oodb_core::CostParams::default(),
        oodb_core::OptimizerConfig::all_rules(),
        64,
        4,
    );
    let server =
        oodb_server::Server::start(svc, "127.0.0.1:0", Default::default()).expect("server starts");
    let q = "SELECT t FROM Task t IN Tasks WHERE t.time() == 100;";
    let out = run_shell(&format!(
        "\\connect {addr}\n{q}\n\\disconnect\n{q}\n\\q\n",
        addr = server.local_addr()
    ));
    server.shutdown();
    let mut at = 0;
    for want in ["connected to ", "rows from ", "disconnected from ", "rows;"] {
        match out[at..].find(want) {
            Some(i) => at += i + want.len(),
            None => panic!("{want:?} expected after byte {at}:\n{out}"),
        }
    }
}

#[test]
fn serving_shell_counts_local_statements_in_metrics() {
    let out = run_shell(
        r#"\serve 127.0.0.1:0
SELECT t FROM Task t IN Tasks WHERE t.time() == 100;
\metrics
\open /nonexistent
\serve stop
\q
"#,
    );
    assert!(out.contains("serving on 127.0.0.1:"), "{out}");
    assert!(out.contains("oodb_submissions_total 1"), "{out}");
    // Swapping the database under a running server is refused.
    assert!(out.contains("\\serve stop first"), "{out}");
    assert!(out.contains("drained and stopped"), "{out}");
}
