//! Service tests over the paper database.

use super::*;
use oodb_core::OpenOodb;
use oodb_fault::{CancelToken, FaultConfig};
use oodb_storage::{generate_paper_db, GenConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn small_service() -> QueryService {
    let (store, _model) = generate_paper_db(GenConfig {
        scale_div: 100,
        ..Default::default()
    });
    QueryService::new(
        store,
        CostParams::default(),
        OptimizerConfig::all_rules(),
        64,
        4,
    )
}

const Q_TIME: &str = "SELECT t FROM Task t IN Tasks WHERE t.time() == 100";

/// How rows were rendered before the executor's root did it: from a
/// collected `ExecResult`, cell by cell through `fmt`. Kept as the
/// oracle the rendering consumer is compared against.
fn render_rows(
    env: &oodb_algebra::QueryEnv,
    result_vars: oodb_algebra::VarSet,
    result: &oodb_exec::ExecResult,
) -> Vec<String> {
    use oodb_exec::ExecResult;
    use std::fmt::Write as _;
    const INFALLIBLE: &str = "writing to a String cannot fail";
    match result {
        ExecResult::Rows(rows) => rows
            .iter()
            .map(|row| {
                let mut line = String::new();
                for (i, v) in row.iter().enumerate() {
                    line.push_str(if i > 0 { " | " } else { "" });
                    write!(line, "{v}").expect(INFALLIBLE);
                }
                line
            })
            .collect(),
        ExecResult::Tuples(tuples) => tuples
            .iter()
            .map(|t| {
                let mut line = String::new();
                for (id, v) in env.scopes.iter() {
                    if let Some(o) = t.try_get(id).filter(|_| result_vars.contains(id)) {
                        line.push_str(if line.is_empty() { "" } else { "  " });
                        write!(line, "{}={o}", v.name).expect(INFALLIBLE);
                    }
                }
                line
            })
            .collect(),
    }
}

/// Rendered rows are the wire format and the sort key: projected cells
/// joined by `" | "`, bindings as `name=oid` joined by two spaces —
/// and they are what `render_rows` made of a collected result, for
/// Q1–Q4 and Fig. 2, however the submission runs.
#[test]
fn rendered_rows_keep_their_format_byte_for_byte() {
    use oodb_object::Value;
    let (_store, model) = generate_paper_db(GenConfig::small());
    let env = oodb_algebra::QueryBuilder::new(model.schema, model.catalog).into_env();
    let projected = oodb_exec::ExecResult::Rows(vec![
        vec![Value::str("a b"), Value::Int(3), Value::Null],
        vec![Value::Bool(true)],
        vec![],
    ]);
    assert_eq!(
        render_rows(&env, oodb_algebra::VarSet::EMPTY, &projected),
        ["\"a b\" | 3 | null", "true", ""]
    );
    let out = small_service()
        .submit("SELECT c FROM City c IN Cities")
        .expect("runs");
    let (name, oid) = out.rows[0].split_once('=').expect("name=oid");
    assert_eq!(name, "c");
    assert!(oid.starts_with('@') && !oid.contains(' '), "{oid}");

    let texts = [
        "SELECT Newobject(e.name(), e.job().name(), e.dept().name()) \
         FROM Employee e IN Employees WHERE e.dept().plant().location() == \"Dallas\"",
        "SELECT c FROM City c IN Cities WHERE c.mayor().name() == \"Joe\"",
        "SELECT Newobject(c.mayor().age(), c.name()) \
         FROM City c IN Cities WHERE c.mayor().name() == \"Joe\"",
        "SELECT t FROM Task t IN Tasks WHERE t.time() == 100 \
         && EXISTS (SELECT m FROM m IN t.team_members() WHERE m.name() == \"Fred\")",
        "SELECT c FROM City c IN Cities \
         WHERE c.mayor().name() == c.country().president().name()",
        // Every Employee/Department pair: thousands of rows, a hash join.
        Q_JOIN,
    ];
    for scale_div in [10, 100] {
        let gen = GenConfig {
            scale_div,
            ..Default::default()
        };
        let service = || {
            let (params, config) = (CostParams::default(), OptimizerConfig::all_rules());
            QueryService::new(generate_paper_db(gen).0, params, config, 64, 4)
        };
        let svc = service();
        let store = svc.store();
        for text in texts {
            let (stmt, _) = svc.prepare(text).expect("compiles");
            let (env, q) = (&stmt.env, &stmt.query);
            let best = OpenOodb::new(env, CostParams::default(), svc.config())
                .optimize(&q.plan, q.result_vars)
                .expect("plans");
            let (collected, _) = oodb_exec::execute(&store, env, &best.plan);
            let mut want = render_rows(env, q.result_vars, &collected);
            want.sort();

            let opts = |trace| SubmitOptions {
                trace,
                ..Default::default()
            };
            for trace in [false, true] {
                let out = svc.submit_with(text, opts(trace)).expect("runs");
                assert_eq!(out.rows, want, "{text} trace={trace}");
                assert_eq!(out.row_count, want.len());
            }
            let out = svc.submit_prepared_with(stmt.id, opts(false));
            assert_eq!(out.expect("runs").rows, want, "prepared {text}");
            if text == Q_JOIN {
                continue; // the greedy fallback plans no explicit join
            }
            let hurried = SubmitOptions {
                deadline: Some(Duration::from_nanos(1)),
                ..Default::default()
            };
            let out = service().submit_with(text, hurried).expect("runs");
            assert!(out.degraded, "an expired search falls back to greedy");
            assert_eq!(out.rows, want, "degraded {text}");
        }
    }
}

/// The replay pool's 58 texts, hottest first: Q1 over ten plant
/// locations (Dallas first), Q2 and Q3 over sixteen mayor names (Joe
/// first), Q4 over sixteen times.
fn replay_texts() -> Vec<String> {
    let mayors = || std::iter::once("Joe".to_string()).chain((1..16).map(|i| format!("p{i:05}")));
    let locations =
        std::iter::once("Dallas".to_string()).chain((1..10).map(|i| format!("loc{i:05}")));
    let q1 = locations.map(|loc| {
        format!(
            "SELECT Newobject(e.name(), e.job().name(), e.dept().name()) \
             FROM Employee e IN Employees WHERE e.dept().plant().location() == \"{loc}\""
        )
    });
    let q2 = mayors()
        .map(|m| format!("SELECT c FROM City c IN Cities WHERE c.mayor().name() == \"{m}\""));
    let q3 = mayors().map(|m| {
        format!(
            "SELECT Newobject(c.mayor().age(), c.name()) \
             FROM City c IN Cities WHERE c.mayor().name() == \"{m}\""
        )
    });
    let q4 = (1..=16).map(|i| {
        format!(
            "SELECT t FROM Task t IN Tasks WHERE t.time() == {} \
             && EXISTS (SELECT m FROM m IN t.team_members() WHERE m.name() == \"Fred\")",
            i * 10
        )
    });
    q1.chain(q2).chain(q3).chain(q4).collect()
}

/// The answer bytes of every replay text at 1/10 scale, cold and warm:
/// what this test renders from the collected `ExecResult` of the same
/// query — cells joined by `" | "`, result variables as `name=value`
/// joined by two spaces — ordered by `sort_unstable`.
#[test]
fn replay_answers_are_the_collected_rows_rendered_and_sorted() {
    let (store, _model) = generate_paper_db(GenConfig {
        scale_div: 10,
        ..Default::default()
    });
    let (params, config) = (CostParams::default(), OptimizerConfig::all_rules());
    let svc = QueryService::new(store, params, config, 64, 4);
    let store = svc.store();
    let texts = replay_texts();
    assert_eq!(texts.len(), 58);
    for (rank, text) in texts.iter().enumerate() {
        let (stmt, _) = svc.prepare(text).expect("compiles");
        let (env, q) = (&stmt.env, &stmt.query);
        let best = OpenOodb::new(env, params, svc.config())
            .optimize(&q.plan, q.result_vars)
            .expect("plans");
        let ex = oodb_exec::Executor::new(&store, env, oodb_fault::RunLimits::default());
        let (collected, _) = ex.try_run(&best.plan, false).0.expect("runs");
        let mut want = render_rows(env, q.result_vars, &collected);
        want.sort_unstable();
        if rank == 0 {
            assert_eq!(want.len(), 740, "Q1 Dallas at 1/10");
        }
        for pass in ["cold", "warm"] {
            let out = svc.submit(text).expect("submits");
            assert_eq!(out.cache_hit, pass == "warm", "{text}");
            assert_eq!(out.rows, want, "{pass} {text}");
            assert_eq!(out.row_count, want.len());
        }
    }
}

/// An explicit equi-join over the two largest extents. Paired with
/// [`hash_join_service`], whose config disables the pointer- and
/// merge-join implementations, it is guaranteed to execute as a
/// hybrid hash join — the memory-hungry operator the governor tests
/// need.
const Q_JOIN: &str = "SELECT Newobject(e.name(), d.name()) \
                      FROM Employee e IN Employees, Department d IN Department \
                      WHERE e.dept() == d";

fn hash_join_service() -> QueryService {
    let (store, _model) = generate_paper_db(GenConfig {
        scale_div: 100,
        ..Default::default()
    });
    QueryService::new(
        store,
        CostParams::default(),
        OptimizerConfig::without(&[
            oodb_core::config::rule_names::POINTER_JOIN,
            oodb_core::config::rule_names::MERGE_JOIN,
        ]),
        64,
        4,
    )
}

/// A database whose `Employees` set is half Freds while the catalog
/// still claims ≈1% — the estimate-drift fixture.
fn skewed_service() -> QueryService {
    let (store, _model) = generate_paper_db(GenConfig {
        scale_div: 100,
        hot_employee_name_fraction: 0.5,
        ..Default::default()
    });
    QueryService::new(
        store,
        CostParams::default(),
        OptimizerConfig::all_rules(),
        64,
        4,
    )
}

const Q_FRED: &str = "SELECT e FROM Employee e IN Employees WHERE e.name() == \"Fred\"";

/// Regression test for the headline bug: drift detection used to run
/// only under `EXPLAIN ANALYZE` (`opts.trace`), so production
/// executions never moved `oodb_actual_card_violations_total` and the
/// feedback loop was silently disabled on the hot path.
#[test]
fn verifier_findings_move_both_counters() {
    use oodb_core::verify::{checks, Diagnostic};
    let svc = small_service();
    let finding = |check| Diagnostic {
        check,
        path: Vec::new(),
        op: "Filter".into(),
        expected: String::new(),
        actual: String::new(),
    };
    let m = &svc.inner.metrics;
    let before = (m.verify_violations.get(), m.interval_violations.get());
    svc.count_findings(&[
        finding(checks::CARD_INTERVAL),
        finding(checks::ARITY),
        finding(checks::CARD_INTERVAL),
    ]);
    let after = (m.verify_violations.get(), m.interval_violations.get());
    assert_eq!((after.0 - before.0, after.1 - before.1), (3, 2));
}

#[test]
fn untraced_executions_feed_the_drift_detector() {
    let svc = skewed_service();
    let out = svc.submit(Q_FRED).unwrap();
    assert!(out.trace.is_none(), "no trace was requested");
    let text = svc.metrics_prometheus();
    assert!(
        text.contains("oodb_actual_card_violations_total 1"),
        "untraced drift must move the violation counter: {text}"
    );
    let stats = svc.feedback_stats();
    assert_eq!(stats.suspect, 1, "{stats:?}");
    assert!(stats.worst_drift >= 10.0, "{stats:?}");
}

#[test]
fn drift_ladder_probes_then_reoptimizes_under_an_overlay() {
    let svc = skewed_service();
    // 1: miss → catalog-only plan; root sample trips the threshold,
    //    the cached plan is evicted.
    let first = svc.submit(Q_FRED).unwrap();
    assert!(!first.cache_hit);
    // 2: suspect with no overrides yet → internally-traced probe;
    //    per-operator actuals become selectivity overrides. The probe
    //    trace is not surfaced to the caller.
    let second = svc.submit(Q_FRED).unwrap();
    assert!(second.trace.is_none(), "probe traces are internal");
    assert!(
        svc.feedback_stats().overrides > 0,
        "probe must record overrides"
    );
    // 3: overlay-keyed cache miss → re-optimization under corrected
    //    selectivities.
    let third = svc.submit(Q_FRED).unwrap();
    assert!(!third.cache_hit, "overlay key must force a re-plan");
    assert_eq!(first.rows, third.rows, "plans must agree on the answer");
    let text = svc.metrics_prometheus();
    assert!(text.contains("oodb_reopt_total 1"), "{text}");
    // 4: the corrected plan is cached under the overlay key and the
    //    corrected execution does not re-trip the ladder.
    let fourth = svc.submit(Q_FRED).unwrap();
    assert!(fourth.cache_hit, "corrected plan must be served from cache");
    let text = svc.metrics_prometheus();
    assert!(
        text.contains("oodb_reopt_total 1"),
        "no re-opt loop: {text}"
    );
    assert!(
        text.contains("oodb_feedback_overrides_active"),
        "gauge must export: {text}"
    );
}

#[test]
fn stats_refresh_retires_suspect_markers() {
    let svc = skewed_service();
    svc.submit(Q_FRED).unwrap();
    assert_eq!(svc.feedback_stats().suspect, 1);
    // Refreshing statistics bumps the epoch; feedback gathered under
    // the old distribution (including suspect markers) is retired.
    svc.refresh_statistics(8);
    let stats = svc.feedback_stats();
    assert_eq!(
        (stats.tracked, stats.suspect),
        (0, 0),
        "stale feedback must not survive an epoch bump: {stats:?}"
    );
}

/// A statistics refresh publishes a new store snapshot — new catalog,
/// rebuilt indexes — that shares every field column with the one it
/// replaced: no object is copied.
#[test]
fn a_statistics_refresh_shares_the_columns() {
    let svc = small_service();
    let before = svc.store();
    svc.refresh_statistics(8);
    let after = svc.store();
    assert!(after.catalog().stats_epoch() > before.catalog().stats_epoch());
    let schema = before.schema();
    for (ty, def) in schema.types() {
        for field in schema.fields_of(ty) {
            let old = before.try_column(ty, field).expect("in the layout");
            let new = after.try_column(ty, field).expect("in the layout");
            assert_eq!(old.len(), before.population(ty));
            assert!(std::ptr::eq(old, new), "{} was copied", def.name);
        }
    }
}

#[test]
fn second_submit_hits_the_cache() {
    let svc = small_service();
    let first = svc.submit(Q_TIME).unwrap();
    assert!(!first.cache_hit);
    let second = svc.submit(Q_TIME).unwrap();
    assert!(second.cache_hit, "identical re-parse must hit");
    assert_eq!(first.rows, second.rows);
    let stats = svc.cache().stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
}

#[test]
fn textual_variants_share_an_entry() {
    let svc = small_service();
    let a = svc
        .submit("SELECT t FROM Task t IN Tasks WHERE t.time() == 100")
        .unwrap();
    let b = svc
        .submit("SELECT zz FROM Task zz IN Tasks WHERE 100 == zz.time()")
        .unwrap();
    assert!(!a.cache_hit);
    assert!(b.cache_hit, "renamed variable + flipped Eq must collide");
    assert_eq!(a.rows, b.rows);
}

#[test]
fn parse_errors_surface() {
    let svc = small_service();
    assert!(matches!(
        svc.submit("SELECT FROM WHERE"),
        Err(ServiceError::Zql(_))
    ));
}

/// A query binding more range variables than a scope arena holds is
/// refused by the front end (HTTP 400), not caught as a panic (HTTP 500).
#[test]
fn a_65th_range_variable_is_a_front_end_error() {
    let svc = small_service();
    let from: Vec<String> = (0..65).map(|i| format!("City c{i} IN Cities")).collect();
    let src = format!(
        r#"SELECT c0 FROM {} WHERE c0.name() == "x""#,
        from.join(", ")
    );
    let err = svc.submit(&src).unwrap_err();
    assert!(matches!(err, ServiceError::Zql(_)), "{err:?}");
}

#[test]
fn stage_breakdown_and_counters_populate() {
    let svc = small_service();
    let out = svc.submit(Q_TIME).unwrap();
    assert!(out.stages.parse_ns > 0 && out.stages.execute_ns > 0);
    let text = svc.metrics_prometheus();
    assert!(text.contains("oodb_submissions_total 1"));
    assert!(text.contains("oodb_optimizer_runs_total 1"));
    assert!(text.contains("oodb_plancache_misses_total 1"));
    assert!(text.contains(r#"oodb_stage_latency_ns_count{stage="parse"} 1"#));
}

#[test]
fn traced_submit_reconciles_with_row_count() {
    let svc = small_service();
    let opts = SubmitOptions {
        trace: true,
        ..Default::default()
    };
    let out = svc.submit_with(Q_TIME, opts).unwrap();
    let trace = out.trace.expect("trace requested");
    assert_eq!(trace.actual_rows, out.row_count as u64);
    assert!(svc.submit(Q_TIME).unwrap().trace.is_none());
}

/// The value of one exported series (`name` with its labels, as
/// rendered), 0 when it has not been exported.
fn series(svc: &QueryService, name: &str) -> u64 {
    let text = svc.metrics_prometheus();
    let line = text.lines().find(|l| l.split(' ').next() == Some(name));
    line.map_or(0, |l| l.rsplit(' ').next().unwrap().parse().unwrap())
}

fn faulty(config: FaultConfig) -> QueryService {
    let svc = small_service();
    svc.attach_fault_injector(FaultInjector::new(config));
    svc
}

/// Every reachable error kind moves `oodb_submission_errors_total` by
/// exactly one, and by exactly one the series the kind owns (if it owns
/// one) — no other of those series moves.
#[test]
fn errors_are_counted() {
    use oodb_core::config::rule_names::{COLLAPSE_TO_INDEX_SCAN, FILE_SCAN, ORDERED_INDEX_SCAN};
    const OWNED: [&str; 5] = [
        "oodb_timeouts_total",
        "oodb_submission_panics_total",
        r#"oodb_shed_total{reason="queue_full"}"#,
        r#"oodb_shed_total{reason="circuit_open"}"#,
        r#"oodb_shed_total{reason="memory_pressure"}"#,
    ];
    let (opts, panics) = (SubmitOptions::default(), FaultConfig::default());
    let panics = FaultConfig {
        panic_rate: 1.0,
        ..panics
    };
    let admission = AdmissionConfig::default();
    type Trigger<'a> = &'a dyn Fn(&QueryService) -> Result<QueryOutput, ServiceError>;
    // The error's `Debug` prefix, the series it owns, the service it
    // meets, and the call that draws it.
    type Case<'a> = (
        &'a str,
        Option<&'a str>,
        &'a dyn Fn() -> QueryService,
        Trigger<'a>,
    );
    let cases: [Case; 13] = [
        (
            "Zql(ZqlError { msg: \"expected FROM",
            None,
            &small_service,
            &|svc| {
                svc.submit("SELECT FROM WHERE") // at parse
            },
        ),
        (
            "Zql(ZqlError { msg: \"unknown",
            None,
            &small_service,
            &|svc| {
                svc.submit("SELECT x FROM Nothing x IN Nowhere") // at simplify
            },
        ),
        (
            "NoPlan",
            None,
            &|| {
                let svc = small_service();
                let scans = [FILE_SCAN, COLLAPSE_TO_INDEX_SCAN, ORDERED_INDEX_SCAN];
                svc.set_config(OptimizerConfig::without(&scans));
                svc
            },
            &|svc| svc.submit(Q_TIME),
        ),
        ("UnknownStatement", None, &small_service, &|svc| {
            svc.submit_prepared_with(42, opts)
        }),
        ("Cancelled", None, &small_service, &|svc| {
            let cancel = CancelToken::new();
            cancel.cancel(); // before it starts
            svc.submit_cancellable(Q_TIME, opts, &cancel)
        }),
        ("RowBudgetExceeded", None, &small_service, &|svc| {
            let row_budget = Some(0);
            svc.submit_with(Q_TIME, SubmitOptions { row_budget, ..opts })
        }),
        (
            "DeadlineExceeded { stage: \"execute\"",
            Some(OWNED[0]),
            // The plan is cached, so the deadline meets no search, and
            // every page access then outlasts it.
            &|| {
                let svc = small_service();
                svc.submit(Q_TIME).expect("primes the cache");
                svc.attach_fault_injector(FaultInjector::new(FaultConfig {
                    latency_ns: 2_000_000,
                    ..Default::default()
                }));
                svc
            },
            &|svc| {
                let deadline = Some(Duration::from_millis(1));
                svc.submit_with(Q_TIME, SubmitOptions { deadline, ..opts })
            },
        ),
        ("MemoryExhausted", None, &hash_join_service, &|svc| {
            let mem_budget = Some(0);
            svc.submit_with(Q_JOIN, SubmitOptions { mem_budget, ..opts })
        }),
        (
            "StorageFault { transient: false",
            None,
            &|| {
                faulty(FaultConfig {
                    read_fault_rate: 1.0,
                    permanent_ratio: 1.0,
                    ..Default::default()
                })
            },
            &|svc| svc.submit(Q_TIME),
        ),
        (
            "Overloaded { reason: QueueFull",
            Some(OWNED[2]),
            &|| {
                let svc = small_service();
                svc.set_admission(AdmissionConfig {
                    max_inflight: 1,
                    ..admission
                });
                svc
            },
            &|svc| {
                let _held = svc.inner.gate.admit(&svc.admission()).expect("a free slot");
                svc.submit(Q_TIME)
            },
        ),
        (
            "Overloaded { reason: CircuitOpen",
            Some(OWNED[3]),
            &|| {
                let svc = faulty(panics);
                svc.set_admission(AdmissionConfig {
                    breaker_threshold: 1,
                    breaker_cooldown: Duration::from_secs(60),
                    ..admission
                });
                svc.submit(Q_TIME).expect_err("trips the breaker");
                svc
            },
            &|svc| svc.submit(Q_TIME),
        ),
        (
            "Overloaded { reason: MemoryPressure",
            Some(OWNED[4]),
            &|| {
                let svc = small_service();
                let gov = MemoryGovernor::new(1000);
                // A grant that is never returned: 95% reserved for good.
                assert!(Box::leak(Box::new(gov.grant(None))).try_reserve(950));
                svc.attach_memory_governor(gov);
                svc.set_admission(AdmissionConfig {
                    degrade_under_pressure: true,
                    ..admission
                });
                svc
            },
            &|svc| svc.submit(Q_TIME),
        ),
        ("Panicked", Some(OWNED[1]), &|| faulty(panics), &|svc| {
            svc.submit(Q_TIME)
        }),
    ];
    for (kind, own, service, trigger) in cases {
        let svc = service();
        let read = |svc: &QueryService| {
            let owned = OWNED.map(|s| series(svc, s));
            (series(svc, "oodb_submission_errors_total"), owned)
        };
        let (errors, owned) = read(&svc);
        let err = trigger(&svc).expect_err(kind);
        assert!(format!("{err:?}").starts_with(kind), "{kind}: {err:?}");
        let (errors_after, owned_after) = read(&svc);
        assert_eq!(errors_after, errors + 1, "{kind}");
        for (i, series) in OWNED.iter().enumerate() {
            let moved = u64::from(own == Some(*series));
            assert_eq!(owned_after[i], owned[i] + moved, "{kind}: {series}");
        }
    }
}

/// The registry is bounded: past the bound a *new* statement is refused
/// as a full queue (and counted as one), and a registered one is still
/// answered.
#[test]
fn the_prepared_registry_is_bounded() {
    let svc = small_service();
    let text = |i: i64| format!("SELECT t FROM Task t IN Tasks WHERE t.time() == {i}");
    for i in 0..prepared::MAX_PREPARED as i64 {
        assert!(svc.prepare(&text(i)).expect("below the bound").1, "{i}");
    }
    let count = |svc: &QueryService| series(svc, "oodb_prepared_statements");
    assert_eq!(count(&svc), prepared::MAX_PREPARED as u64);
    let full = ServiceError::Overloaded {
        reason: ShedReason::QueueFull,
    };
    assert_eq!(svc.prepare(&text(-1)).unwrap_err(), full);
    assert_eq!(series(&svc, "oodb_submission_errors_total"), 1);
    assert_eq!(series(&svc, r#"oodb_shed_total{reason="queue_full"}"#), 1);
    assert!(svc.submit(&text(-1)).is_ok(), "text is not registered");
    let (known, created) = svc.prepare(&text(7)).expect("already registered");
    assert!(!created);
    assert_eq!(count(&svc), prepared::MAX_PREPARED as u64);
    svc.submit_prepared_with(known.id, SubmitOptions::default())
        .expect("a registered statement runs past the bound");
}

#[test]
fn prepared_statements_share_ids_and_hit_the_cache() {
    let svc = small_service();
    let (stmt, created) = svc.prepare(Q_TIME).unwrap();
    assert!(created);
    // A textual variant (renamed var, flipped Eq) collides on the
    // canonical fingerprint: same statement, not a new registration.
    let (variant, created2) = svc
        .prepare("SELECT zz FROM Task zz IN Tasks WHERE 100 == zz.time()")
        .unwrap();
    assert!(!created2);
    assert_eq!(stmt.id, variant.id);
    // First execute fills the plan cache; the second hits by id.
    let a = svc
        .submit_prepared_with(stmt.id, SubmitOptions::default())
        .unwrap();
    assert!(!a.cache_hit);
    let b = svc
        .submit_prepared_with(stmt.id, SubmitOptions::default())
        .unwrap();
    assert!(b.cache_hit, "prepared execute must hit by id");
    assert_eq!(a.rows, b.rows);
    // Ad-hoc text of the same query shares the cached plan too.
    assert!(svc.submit(Q_TIME).unwrap().cache_hit);
    assert_eq!(
        (a.stages.parse_ns, a.stages.simplify_ns),
        (0, 0),
        "prepared executions never parse"
    );
    let text = svc.metrics_prometheus();
    assert!(text.contains("oodb_prepares_total 1"), "{text}");
    assert!(text.contains("oodb_prepared_statements 1"), "{text}");
    assert!(text.contains("oodb_prepared_executes_total 2"), "{text}");
}

#[test]
fn unknown_statement_is_typed() {
    let svc = small_service();
    assert_eq!(
        svc.submit_prepared_with(42, SubmitOptions::default()),
        Err(ServiceError::UnknownStatement { id: 42 })
    );
    let (stmt, _) = svc.prepare(Q_TIME).unwrap();
    assert!(svc.prepared(stmt.id).is_some());
}

#[test]
fn prepared_execution_survives_stats_epoch_bumps() {
    let svc = small_service();
    let (stmt, _) = svc.prepare(Q_TIME).unwrap();
    let before = svc
        .submit_prepared_with(stmt.id, SubmitOptions::default())
        .unwrap();
    // A statistics refresh bumps the epoch: the next execute misses
    // the cache (stale key) but still answers, re-optimizing from the
    // registered compiled query.
    svc.refresh_statistics(8);
    let after = svc
        .submit_prepared_with(stmt.id, SubmitOptions::default())
        .unwrap();
    assert!(!after.cache_hit, "epoch bump must invalidate by key");
    assert_eq!(before.rows, after.rows);
    assert!(after.stats_epoch > before.stats_epoch);
}

#[test]
fn prepared_execution_replans_against_the_current_catalog() {
    let svc = small_service();
    let (stmt, _) = svc
        .prepare(r#"SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe""#)
        .unwrap();
    let before = svc
        .submit_prepared_with(stmt.id, SubmitOptions::default())
        .unwrap();
    assert_eq!(before.indexes_used, ["Cities_mayor_name"]);
    // The statement's environment names an index the new catalog does
    // not have: the miss must plan from the request's catalog.
    svc.restrict_indexes(&[]);
    let after = svc
        .submit_prepared_with(stmt.id, SubmitOptions::default())
        .unwrap();
    assert!(after.indexes_used.is_empty(), "{:?}", after.indexes_used);
    assert_eq!(before.rows, after.rows);
}

/// Every histogram of a catalog, in key order.
fn histograms_of(c: &oodb_object::Catalog) -> Vec<String> {
    let mut out: Vec<String> = c.histograms().map(|k| format!("{k:?}")).collect();
    out.sort();
    out
}

/// A cached entry shares the catalog snapshot it was planned under. A
/// statistics refresh that changes a histogram, and then an index drop,
/// replace the store's catalog; the entry taken out of the cache before
/// them still reads the histograms and the index set it was planned with.
#[test]
fn a_cached_plan_keeps_the_catalog_it_was_planned_under() {
    let svc = small_service();
    svc.refresh_statistics(8);
    let (stmt, _) = svc
        .prepare(r#"SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe""#)
        .unwrap();
    let out = svc
        .submit_prepared_with(stmt.id, SubmitOptions::default())
        .unwrap();
    let before = svc.store();
    let key = oodb_core::CacheKey {
        fingerprint: stmt.id,
        config: out.config_fp,
        stats_epoch: out.stats_epoch,
        index_set: before.catalog().index_set_hash(),
        overlay: 0,
    };
    let entry = svc
        .cache()
        .get(&key, stmt.structural_key())
        .expect("the execution cached its plan");
    let planned = histograms_of(before.catalog());
    assert!(!planned.is_empty());
    assert_eq!(histograms_of(&entry.env.catalog), planned);
    let index_set = entry.env.catalog.index_set_hash();
    assert_eq!(index_set, before.catalog().index_set_hash());

    assert!(
        svc.refresh_statistics(3),
        "a 3-bucket refresh moves the epoch"
    );
    svc.restrict_indexes(&[]);
    let now = svc.store();
    assert_ne!(histograms_of(now.catalog()), planned);
    assert_eq!(now.catalog().indexes().count(), 0);

    assert_eq!(histograms_of(&entry.env.catalog), planned);
    assert_eq!(entry.env.catalog.index_set_hash(), index_set);
    assert!(entry
        .env
        .catalog
        .index_by_name("Cities_mayor_name")
        .is_some());
    assert_eq!(entry.env.catalog.stats_epoch(), out.stats_epoch);
}

#[test]
fn snapshot_caches_the_index_set_hash() {
    let svc = small_service();
    svc.restrict_indexes(&["Cities_mayor_name"]);
    let state = svc.inner.state.load();
    assert_eq!(state.index_set, svc.store().catalog().index_set_hash());
    assert_ne!(
        state.index_set,
        generate_paper_db(GenConfig {
            scale_div: 100,
            ..Default::default()
        })
        .0
        .catalog()
        .index_set_hash()
    );
}

#[test]
fn panicking_mutator_does_not_wedge_snapshot_state() {
    let svc = small_service();
    // Panic *inside* a snapshot update closure: the writer mutex is
    // abandoned mid-section, which is exactly the poisoning shape
    // the old RwLock design had to recover from.
    let s = svc.clone();
    let _ = catch_unwind(AssertUnwindSafe(|| {
        s.inner.state.update(|_| -> (ServiceState, ()) {
            panic!("poison the snapshot writer lock");
        });
    }));
    // The service keeps working: the published snapshot is still the
    // intact pre-panic value, and both readers and writers recover.
    assert!(svc.submit(Q_TIME).is_ok());
    svc.set_config(OptimizerConfig::all_rules());
    svc.refresh_statistics(8);
    assert!(svc.submit(Q_TIME).is_ok());
}

#[test]
fn combined_swap_is_observed_atomically() {
    let svc = small_service();
    let before = svc.snapshot_identity();
    // A combined statistics+config swap either happened entirely or
    // not at all from any reader's point of view.
    svc.refresh_statistics_with_config(
        8,
        OptimizerConfig::without(&[oodb_core::config::rule_names::MERGE_JOIN]),
    );
    let after = svc.snapshot_identity();
    assert_ne!(before, after);
    let out = svc.submit(Q_TIME).unwrap();
    assert_eq!((out.stats_epoch, out.config_fp), after);
}

#[test]
fn injected_panic_is_caught_and_service_stays_healthy() {
    let svc = small_service();
    svc.attach_fault_injector(FaultInjector::new(oodb_fault::FaultConfig {
        panic_rate: 1.0,
        ..Default::default()
    }));
    svc.set_admission(AdmissionConfig {
        breaker_threshold: 1,
        breaker_cooldown: Duration::from_secs(60),
        ..Default::default()
    });
    let err = svc.submit(Q_TIME).unwrap_err();
    assert!(matches!(err, ServiceError::Panicked(_)), "{err:?}");
    // The panic unwound through the gate's permit: the process
    // breaker counts it like any other resource failure.
    assert_eq!(
        svc.submit(Q_TIME).unwrap_err(),
        ServiceError::Overloaded {
            reason: ShedReason::CircuitOpen
        }
    );
    assert!(svc.retry_after() > Duration::from_secs(1));
    let text = svc.metrics_prometheus();
    assert!(text.contains("oodb_submission_panics_total 1"), "{text}");
    assert!(text.contains("oodb_breaker_trips_total 1"), "{text}");
    assert!(text.contains("oodb_inflight 0"), "{text}");
    // Detach and the same service (same locks, same cache) recovers.
    svc.detach_fault_injector();
    svc.set_admission(AdmissionConfig::default());
    assert!(svc.submit(Q_TIME).is_ok());
}

#[test]
fn cancelled_submission_returns_typed_error() {
    let svc = small_service();
    let cancel = CancelToken::new();
    cancel.cancel();
    assert_eq!(
        svc.submit_cancellable(Q_TIME, SubmitOptions::default(), &cancel),
        Err(ServiceError::Cancelled)
    );
    // A fresh token does not interfere.
    let fresh = CancelToken::new();
    assert!(svc
        .submit_cancellable(Q_TIME, SubmitOptions::default(), &fresh)
        .is_ok());
}

#[test]
fn row_budget_zero_is_rejected_with_budget_in_error() {
    let svc = small_service();
    let opts = SubmitOptions {
        row_budget: Some(0),
        ..Default::default()
    };
    assert_eq!(
        svc.submit_with(Q_TIME, opts),
        Err(ServiceError::RowBudgetExceeded { budget: 0 })
    );
}

/// Attaching or detaching run policy publishes a snapshot with the same
/// store: the injector and the governor ride on each run, not on the
/// store, so neither copies it.
#[test]
fn attaching_run_policy_keeps_the_store() {
    let svc = small_service();
    let store = svc.store();
    svc.attach_memory_governor(MemoryGovernor::new(64 << 20));
    assert!(Arc::ptr_eq(&store, &svc.store()));
    svc.attach_fault_injector(FaultInjector::new(FaultConfig::default()));
    assert!(Arc::ptr_eq(&store, &svc.store()));
    assert!(svc.memory_governor().is_some() && svc.fault_injector().is_some());
    svc.detach_fault_injector();
    svc.detach_memory_governor();
    assert!(Arc::ptr_eq(&store, &svc.store()));
    assert!(svc.memory_governor().is_none() && svc.fault_injector().is_none());
}

#[test]
fn tight_memory_budget_spills_and_still_answers() {
    let svc = hash_join_service();
    svc.attach_memory_governor(MemoryGovernor::new(64 << 20));
    let free = svc
        .submit_with(
            Q_JOIN,
            SubmitOptions {
                mem_budget: Some(64 << 20),
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(free.spill_pages, 0, "a wide grant must not spill");
    assert!(free.mem_peak_bytes > 0, "a hash join must reserve memory");
    let tight = svc
        .submit_with(
            Q_JOIN,
            SubmitOptions {
                mem_budget: Some(512),
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(tight.rows, free.rows, "spilling must not change answers");
    assert!(tight.spill_pages > 0, "512 bytes must force a spill");
    assert!(tight.mem_peak_bytes <= 512, "{}", tight.mem_peak_bytes);
    let gov = svc.memory_governor().unwrap();
    assert_eq!(gov.stats().reserved, 0, "grants must drain at quiesce");
    let text = svc.metrics_prometheus();
    assert!(
        text.contains("oodb_exec_spill_pages_written_total"),
        "{text}"
    );
    assert!(text.contains("oodb_mem_capacity_bytes"), "{text}");
}

#[test]
fn memory_exhausted_is_typed_and_not_retried() {
    let svc = hash_join_service();
    let err = svc
        .submit_with(
            Q_JOIN,
            SubmitOptions {
                mem_budget: Some(0),
                retries: 8,
                ..Default::default()
            },
        )
        .unwrap_err();
    assert!(
        matches!(err, ServiceError::MemoryExhausted { budget: 0, .. }),
        "{err:?}"
    );
}

#[test]
fn pressure_ladder_degrades_then_sheds() {
    let svc = small_service();
    let gov = MemoryGovernor::new(1000);
    svc.attach_memory_governor(gov.clone());
    svc.set_admission(AdmissionConfig {
        degrade_under_pressure: true,
        ..Default::default()
    });
    // Nominal pressure: full search, not degraded.
    let calm = svc.submit(Q_TIME).unwrap();
    assert!(!calm.degraded);
    // An outside tenant pushes reservation over 90%: critical → shed.
    let hog = gov.grant(None);
    assert!(hog.try_reserve(950));
    assert_eq!(
        svc.submit(Q_TIME).unwrap_err(),
        ServiceError::Overloaded {
            reason: ShedReason::MemoryPressure
        }
    );
    // Down to high (75–90%): degrade — greedy plan, answer still right.
    hog.release(150);
    let degraded = svc.submit(Q_TIME).unwrap();
    assert!(degraded.degraded, "High pressure must degrade");
    assert_eq!(degraded.rows, calm.rows);
    assert!(!degraded.cache_hit, "degraded runs bypass the cache");
    // Released: back to the full search.
    drop(hog);
    assert!(!svc.submit(Q_TIME).unwrap().degraded);
    let text = svc.metrics_prometheus();
    assert!(
        text.contains(r#"oodb_shed_total{reason="memory_pressure"} 1"#),
        "{text}"
    );
    assert!(text.contains("oodb_pressure_degrades_total 1"), "{text}");
}

/// Greedy plans no explicit join, so a join whose search ran out of
/// deadline has no degraded rung: it fails as a timeout in the optimize
/// stage, not as an infeasible query.
#[test]
fn an_expired_join_search_is_a_deadline_error() {
    let svc = small_service();
    let opts = SubmitOptions {
        deadline: Some(Duration::from_nanos(1)),
        ..Default::default()
    };
    assert_eq!(
        svc.submit_with(Q_JOIN, opts).unwrap_err(),
        ServiceError::DeadlineExceeded { stage: "optimize" }
    );
    assert!(svc.submit(Q_JOIN).unwrap().row_count > 0);
    assert!(!svc
        .metrics_prometheus()
        .contains("oodb_fallback_plans_total 1"));
}

/// Under high memory pressure a join, which greedy cannot plan, gets the
/// full search, and still runs under half its grant.
#[test]
fn a_pressure_degraded_join_searches_in_full_under_half_the_grant() {
    let svc = hash_join_service();
    let gov = MemoryGovernor::new(1 << 20);
    svc.attach_memory_governor(gov.clone());
    svc.set_admission(AdmissionConfig {
        degrade_under_pressure: true,
        ..Default::default()
    });
    let opts = SubmitOptions {
        mem_budget: Some(512),
        ..Default::default()
    };
    let calm = svc.submit_with(Q_JOIN, opts).unwrap();
    assert!(calm.mem_peak_bytes > 256, "{}", calm.mem_peak_bytes);
    // An outside tenant holds 80% of the governor: High pressure.
    let hog = gov.grant(None);
    assert!(hog.try_reserve(800 << 10));
    let pressed = svc.submit_with(Q_JOIN, opts).unwrap();
    assert_eq!(pressed.rows, calm.rows);
    assert!(!pressed.degraded, "the full search ran");
    assert!(pressed.mem_peak_bytes <= 256, "{}", pressed.mem_peak_bytes);
    let text = svc.metrics_prometheus();
    assert!(text.contains("oodb_pressure_degrades_total 1"), "{text}");
}

#[test]
fn plancache_bytes_gauge_exports() {
    let svc = small_service();
    svc.submit(Q_TIME).unwrap();
    let bytes = series(&svc, "oodb_plancache_bytes");
    assert!(bytes > 0, "resident bytes must be positive after an insert");
}

#[test]
fn transient_faults_retry_to_success_and_are_counted() {
    let svc = small_service();
    svc.attach_fault_injector(FaultInjector::new(oodb_fault::FaultConfig {
        read_fault_rate: 0.05,
        permanent_ratio: 0.0,
        ..Default::default()
    }));
    let opts = SubmitOptions {
        retries: 64,
        ..Default::default()
    };
    let out = svc.submit_with(Q_TIME, opts).expect("retries must win");
    assert!(!out.degraded);
    let inj = svc.fault_injector().unwrap();
    assert_eq!(inj.stats().permanent, 0);
    // Every injected transient fault cost exactly one retry.
    assert_eq!(out.retries as u64, inj.stats().transient);
    let text = svc.metrics_prometheus();
    assert!(
        text.contains(&format!("oodb_retries_total {}", out.retries)),
        "{text}"
    );
}

/// A retried attempt starts an empty answer: under transient read
/// faults, Q1 Dallas at 1/10 and a filtered scan return the fault-free
/// rows byte for byte. Dallas's faults all strike before its root emits
/// a row; the scan emits a batch of rows before each next fault, so
/// rows kept from a failed attempt would show there.
#[test]
fn a_retried_answer_is_the_fault_free_answer() {
    let scan = "SELECT e FROM Employee e IN Employees WHERE e.age() > 30";
    let gen = GenConfig {
        scale_div: 10,
        ..Default::default()
    };
    let service = || {
        let (params, config) = (CostParams::default(), OptimizerConfig::all_rules());
        QueryService::new(generate_paper_db(gen).0, params, config, 64, 4)
    };
    for text in [replay_texts()[0].as_str(), scan] {
        let clean = service().submit(text).expect("fault-free");
        let svc = service();
        svc.attach_fault_injector(FaultInjector::new(FaultConfig {
            read_fault_rate: 0.05,
            permanent_ratio: 0.0,
            ..Default::default()
        }));
        let opts = SubmitOptions {
            retries: 64,
            ..Default::default()
        };
        let out = svc.submit_with(text, opts).expect("retries must win");
        assert!(out.retries > 0, "no fault struck {text}");
        assert_eq!(out.rows, clean.rows, "{text}");
        assert_eq!(out.row_count, out.rows.len());
    }
}

#[test]
fn durable_mutations_recover_to_identical_query_results() {
    let dir = oodb_wal::ScratchDir::new("svc-durable").unwrap();
    let svc = small_service();
    svc.enable_durability(dir.path(), FlushPolicy::EveryRecord)
        .unwrap();
    // A logged mutation: bumps the epoch and refines the catalog.
    svc.refresh_statistics(24);
    let live = svc.submit(Q_TIME).expect("live query");
    let stats = svc.durability_stats().expect("durability on");
    assert_eq!(stats.records, 1);
    assert!(!stats.poisoned);
    let text = svc.metrics_prometheus();
    assert!(text.contains("oodb_wal_records_total 1"), "{text}");

    let (back, report) = QueryService::recover(
        dir.path(),
        CostParams::default(),
        OptimizerConfig::all_rules(),
        64,
        4,
        FlushPolicy::EveryRecord,
    )
    .expect("recovery");
    assert_eq!(report.replayed_records, 1);
    assert!(report.stopped.is_none());
    assert_eq!(
        oodb_wal::store_digest(&svc.store()),
        oodb_wal::store_digest(&back.store()),
        "recovered store must match the live one bit for bit"
    );
    let replayed = back.submit(Q_TIME).expect("recovered query");
    assert_eq!(live.rows, replayed.rows);
    assert_eq!(live.stats_epoch, replayed.stats_epoch);
    // The recovered service resumed logging: its session starts at
    // the recovered sequence with an empty, freshly compacted log.
    assert_eq!(back.durability_stats().expect("resumed").records, 0);
    let rtext = back.metrics_prometheus();
    assert!(rtext.contains("oodb_recovery_replayed_total 1"), "{rtext}");
}

#[test]
fn a_dropped_service_frees_its_store() {
    let dir = oodb_wal::ScratchDir::new("svc-retention").unwrap();
    let svc = small_service();
    svc.enable_durability(dir.path(), FlushPolicy::EveryRecord)
        .unwrap();
    svc.submit(Q_TIME).expect("first submit");
    let first = Arc::downgrade(&svc.store());
    svc.refresh_statistics(24);
    svc.submit(Q_TIME).expect("after the refresh");
    svc.restrict_indexes(&[]);
    svc.submit(Q_TIME).expect("after the restriction");
    svc.checkpoint_wal()
        .expect("durability on")
        .expect("checkpoint");
    assert!(
        first.upgrade().is_none(),
        "a superseded store outlived its publish"
    );
    let last = Arc::downgrade(&svc.store());
    drop(svc);
    assert!(
        last.upgrade().is_none(),
        "the dropped service's store is alive"
    );

    let (back, _) = QueryService::recover(
        dir.path(),
        CostParams::default(),
        OptimizerConfig::all_rules(),
        64,
        4,
        FlushPolicy::EveryRecord,
    )
    .expect("recovery");
    back.submit(Q_TIME).expect("recovered query");
    let recovered = Arc::downgrade(&back.store());
    drop(back);
    assert!(
        recovered.upgrade().is_none(),
        "the recovered service's store is alive"
    );
}
