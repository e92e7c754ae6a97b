//! Engine tests over the paper database.

use super::pipeline::JoinSpec;
use super::*;
use oodb_algebra::{CmpOp, Operand, PlanEst, QueryBuilder, SetOpKind, Term, VarId};
use oodb_storage::{generate_paper_db, GenConfig};
use std::collections::HashSet;

fn plan(op: PhysicalOp, children: Vec<PhysicalPlan>) -> PhysicalPlan {
    PhysicalPlan {
        op,
        children,
        est: PlanEst::default(),
    }
}

#[test]
fn file_scan_returns_all_members_with_sequential_io() {
    let (store, m) = generate_paper_db(GenConfig::small());
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (_, c) = qb.get(m.ids.cities, "c");
    let env = qb.into_env();
    let scan = plan(
        PhysicalOp::FileScan {
            coll: m.ids.cities,
            var: c,
        },
        vec![],
    );
    let (res, stats) = execute(&store, &env, &scan);
    assert_eq!(res.len(), store.members(m.ids.cities).len());
    // Dense scan: almost everything sequential.
    assert!(stats.disk.seq_reads >= stats.disk.rand_reads);
}

#[test]
fn filter_agrees_with_oracle() {
    let (store, m) = generate_paper_db(GenConfig::small());
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (_, t) = qb.get(m.ids.tasks, "t");
    let pred = qb.cmp_const(t, m.ids.task_time, CmpOp::Eq, Value::Int(100));
    let env = qb.into_env();
    let p = plan(
        PhysicalOp::Filter { pred },
        vec![plan(
            PhysicalOp::FileScan {
                coll: m.ids.tasks,
                var: t,
            },
            vec![],
        )],
    );
    let (res, _) = execute(&store, &env, &p);
    let oracle = store
        .members(m.ids.tasks)
        .iter()
        .filter(|&&o| store.read_field(o, m.ids.task_time) == &Value::Int(100))
        .count();
    assert_eq!(res.len(), oracle);
}

#[test]
fn assembly_resolves_references_and_window_matters() {
    let (store, m) = generate_paper_db(GenConfig::small());
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (cities, c) = qb.get(m.ids.cities, "c");
    let (_, cm) = qb.mat(cities, c, m.ids.city_mayor, "cm");
    let env = qb.into_env();

    let mk = |window: u32| {
        plan(
            PhysicalOp::Assembly {
                targets: vec![cm],
                window,
            },
            vec![plan(
                PhysicalOp::FileScan {
                    coll: m.ids.cities,
                    var: c,
                },
                vec![],
            )],
        )
    };
    let (res_w, stats_w) = execute(&store, &env, &mk(8192));
    let (res_1, stats_1) = execute(&store, &env, &mk(1));
    assert_eq!(res_w.len(), res_1.len());
    // Same bindings regardless of window.
    for (a, b) in res_w.tuples().iter().zip(res_1.tuples()) {
        assert_eq!(a.get(cm), b.get(cm));
        assert_eq!(
            Some(a.get(cm)),
            store.read_field(a.get(c), m.ids.city_mayor).as_ref_oid()
        );
    }
    // The windowed elevator is cheaper on simulated time.
    assert!(
        stats_w.disk.total_s < stats_1.disk.total_s,
        "window {} vs window-1 {}",
        stats_w.disk.total_s,
        stats_1.disk.total_s
    );
}

#[test]
fn hash_join_matches_pointer_join() {
    let (store, m) = generate_paper_db(GenConfig::small());
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (emp, e) = qb.get(m.ids.employees, "e");
    let (_, d) = qb.mat(emp, e, m.ids.emp_dept, "d");
    let pred = qb.ref_eq(e, m.ids.emp_dept, d);
    let env = qb.into_env();

    let emp_scan = || {
        plan(
            PhysicalOp::FileScan {
                coll: m.ids.employees,
                var: e,
            },
            vec![],
        )
    };
    // HHJ: referenced objects (departments) on the build/left side.
    let hhj = plan(
        PhysicalOp::HybridHashJoin { pred },
        vec![
            plan(
                PhysicalOp::FileScan {
                    coll: m.ids.department_extent,
                    var: d,
                },
                vec![],
            ),
            emp_scan(),
        ],
    );
    let pj = plan(PhysicalOp::PointerJoin { pred }, vec![emp_scan()]);
    let (r1, _) = execute(&store, &env, &hhj);
    let (r2, _) = execute(&store, &env, &pj);
    assert_eq!(r1.len(), r2.len());
    assert_eq!(r1.len(), store.members(m.ids.employees).len());
    let set1: HashSet<&Tuple> = r1.tuples().iter().collect();
    assert!(r2.tuples().iter().all(|t| set1.contains(t)));
}

#[test]
fn set_ops_behave() {
    let (store, m) = generate_paper_db(GenConfig::small());
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (_, t) = qb.get(m.ids.tasks, "t");
    let p100 = qb.cmp_const(t, m.ids.task_time, CmpOp::Eq, Value::Int(100));
    let ple = qb.cmp_const(t, m.ids.task_time, CmpOp::Le, Value::Int(100));
    let env = qb.into_env();
    let scan = || {
        plan(
            PhysicalOp::FileScan {
                coll: m.ids.tasks,
                var: t,
            },
            vec![],
        )
    };
    let f100 = plan(PhysicalOp::Filter { pred: p100 }, vec![scan()]);
    let fle = plan(PhysicalOp::Filter { pred: ple }, vec![scan()]);

    let inter = plan(
        PhysicalOp::HashSetOp {
            kind: SetOpKind::Intersect,
        },
        vec![f100.clone(), fle.clone()],
    );
    let diff = plan(
        PhysicalOp::HashSetOp {
            kind: SetOpKind::Difference,
        },
        vec![fle.clone(), f100.clone()],
    );
    let union = plan(
        PhysicalOp::HashSetOp {
            kind: SetOpKind::Union,
        },
        vec![f100.clone(), fle.clone()],
    );
    let (ri, _) = execute(&store, &env, &inter);
    let (rd, _) = execute(&store, &env, &diff);
    let (ru, _) = execute(&store, &env, &union);
    let (r100, _) = execute(&store, &env, &f100);
    let (rle, _) = execute(&store, &env, &fle);
    // time==100 ⊆ time<=100.
    assert_eq!(ri.len(), r100.len());
    assert_eq!(rd.len(), rle.len() - r100.len());
    assert_eq!(ru.len(), rle.len());
}

/// The spilling hybrid join must produce exactly the rows the
/// in-memory join does — partitioned, recursed, or chunked — while
/// charging visible spill I/O and reconciling the governor's ledger.
#[test]
fn spilling_hash_join_matches_in_memory() {
    use oodb_mem::MemoryGovernor;
    let (store, m) = generate_paper_db(GenConfig::small());
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (emp, e) = qb.get(m.ids.employees, "e");
    let (_, d) = qb.mat(emp, e, m.ids.emp_dept, "d");
    let pred = qb.ref_eq(e, m.ids.emp_dept, d);
    let env = qb.into_env();
    let hhj = plan(
        PhysicalOp::HybridHashJoin { pred },
        vec![
            plan(
                PhysicalOp::FileScan {
                    coll: m.ids.employees,
                    var: e,
                },
                vec![],
            ),
            plan(
                PhysicalOp::FileScan {
                    coll: m.ids.department_extent,
                    var: d,
                },
                vec![],
            ),
        ],
    );
    let (baseline, base_stats) = try_execute(&store, &env, &hhj, RunLimits::default()).unwrap();
    assert_eq!(base_stats.mem.spill_pages_written, 0, "unconstrained run");
    let mut base_sorted: Vec<&Tuple> = baseline.tuples().iter().collect();
    base_sorted.sort_by_key(|t| (t.get(e), t.get(d)));

    // Govern at a fraction of the 500-row build side; every budget
    // must still produce the identical result multiset.
    let gov = MemoryGovernor::new(u64::MAX);
    for budget in [8192u64, 1024, 256] {
        let (res, stats) = try_execute(
            &store,
            &env,
            &hhj,
            RunLimits {
                mem_budget: Some(budget),
                governor: Some(gov.clone()),
                ..Default::default()
            },
        )
        .unwrap_or_else(|err| panic!("budget {budget}: {err}"));
        let mut sorted: Vec<&Tuple> = res.tuples().iter().collect();
        sorted.sort_by_key(|t| (t.get(e), t.get(d)));
        assert_eq!(sorted, base_sorted, "budget {budget}");
        assert!(
            stats.mem.spilled_partitions > 0 || stats.mem.grant_denials > 0,
            "budget {budget} should constrain a 500-row build: {:?}",
            stats.mem
        );
        assert_eq!(
            stats.mem.spill_pages_written, stats.mem.spill_pages_read,
            "every spilled page is read back exactly once (budget {budget})"
        );
        assert!(
            stats.mem.peak_bytes <= budget,
            "peak {} exceeds budget {budget}",
            stats.mem.peak_bytes
        );
        assert!(stats.disk.total_s > base_stats.disk.total_s || budget >= 8192);
    }
    let gs = gov.stats();
    assert_eq!(gs.reserved, 0, "quiesce: all grants returned");
    assert_eq!(gs.reserved_total, gs.released_total);
    assert_eq!(gs.spill_bytes_written, gs.spill_bytes_read);
}

/// A grant that cannot hold even one hash-table row is a typed
/// error, not a panic or a wrong answer.
#[test]
fn zero_memory_budget_is_a_typed_error() {
    let (store, m) = generate_paper_db(GenConfig::small());
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (emp, e) = qb.get(m.ids.employees, "e");
    let (_, d) = qb.mat(emp, e, m.ids.emp_dept, "d");
    let pred = qb.ref_eq(e, m.ids.emp_dept, d);
    let env = qb.into_env();
    let hhj = plan(
        PhysicalOp::HybridHashJoin { pred },
        vec![
            plan(
                PhysicalOp::FileScan {
                    coll: m.ids.department_extent,
                    var: d,
                },
                vec![],
            ),
            plan(
                PhysicalOp::FileScan {
                    coll: m.ids.employees,
                    var: e,
                },
                vec![],
            ),
        ],
    );
    let err = try_execute(
        &store,
        &env,
        &hhj,
        RunLimits {
            mem_budget: Some(0),
            ..Default::default()
        },
    )
    .unwrap_err();
    assert!(
        matches!(err, ExecError::MemoryExhausted { budget: 0, .. }),
        "{err}"
    );
}

/// Staged set-ops under a tight grant emit byte-identical output to
/// the hashed variants, in the same order.
#[test]
fn staged_set_ops_match_hashed_exactly() {
    let (store, m) = generate_paper_db(GenConfig::small());
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (_, t) = qb.get(m.ids.tasks, "t");
    let p100 = qb.cmp_const(t, m.ids.task_time, CmpOp::Eq, Value::Int(100));
    let ple = qb.cmp_const(t, m.ids.task_time, CmpOp::Le, Value::Int(100));
    let env = qb.into_env();
    let scan = || {
        plan(
            PhysicalOp::FileScan {
                coll: m.ids.tasks,
                var: t,
            },
            vec![],
        )
    };
    let f100 = plan(PhysicalOp::Filter { pred: p100 }, vec![scan()]);
    let fle = plan(PhysicalOp::Filter { pred: ple }, vec![scan()]);
    for kind in [
        SetOpKind::Union,
        SetOpKind::Intersect,
        SetOpKind::Difference,
    ] {
        let p = plan(
            PhysicalOp::HashSetOp { kind },
            vec![fle.clone(), f100.clone()],
        );
        let (unconstrained, _) = try_execute(&store, &env, &p, RunLimits::default()).unwrap();
        let (staged, stats) = try_execute(
            &store,
            &env,
            &p,
            RunLimits {
                // Enough for flags and a small key chunk, far too
                // small for the full key sets.
                mem_budget: Some(128),
                ..Default::default()
            },
        )
        .unwrap_or_else(|err| panic!("{kind:?}: {err}"));
        assert!(
            stats.mem.grant_denials > 0,
            "{kind:?} should have been staged"
        );
        assert_eq!(
            staged.tuples(),
            unconstrained.tuples(),
            "{kind:?}: staged output must match hashed output exactly"
        );
    }
}

/// A grant-shrunk assembly window binds the same references, paying
/// more simulated seeks for the smaller elevator sweep.
#[test]
fn pressured_assembly_window_shrinks_not_breaks() {
    let (store, m) = generate_paper_db(GenConfig::small());
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (cities, c) = qb.get(m.ids.cities, "c");
    let (_, cm) = qb.mat(cities, c, m.ids.city_mayor, "cm");
    let env = qb.into_env();
    let p = plan(
        PhysicalOp::Assembly {
            targets: vec![cm],
            window: 8192,
        },
        vec![plan(
            PhysicalOp::FileScan {
                coll: m.ids.cities,
                var: c,
            },
            vec![],
        )],
    );
    let (full, full_stats) = try_execute(&store, &env, &p, RunLimits::default()).unwrap();
    let (tight, tight_stats) = try_execute(
        &store,
        &env,
        &p,
        RunLimits {
            mem_budget: Some(1024), // window shrinks to ~21 refs
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(full.tuples(), tight.tuples(), "bindings are unaffected");
    assert!(
        tight_stats.disk.total_s > full_stats.disk.total_s,
        "smaller window loses elevator discount: {} vs {}",
        tight_stats.disk.total_s,
        full_stats.disk.total_s
    );
}

/// The row budget (and with it, cancellation and the deadline — they
/// share the checkpoint) stops a streaming hash join at a batch
/// boundary *mid-pipeline*: the probe side is neither probed nor even
/// scanned to the end.
#[test]
fn row_budget_interrupts_hash_join_mid_pipeline() {
    let (store, m) = generate_paper_db(GenConfig {
        scale_div: 10,
        ..Default::default()
    });
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (emp, e) = qb.get(m.ids.employees, "e");
    let (_, d) = qb.mat(emp, e, m.ids.emp_dept, "d");
    let pred = qb.ref_eq(e, m.ids.emp_dept, d);
    let env = qb.into_env();
    let scan = |coll, var| plan(PhysicalOp::FileScan { coll, var }, vec![]);
    let hhj = plan(
        PhysicalOp::HybridHashJoin { pred },
        vec![scan(m.ids.department_extent, d), scan(m.ids.employees, e)],
    );
    let depts = store.members(m.ids.department_extent).len() as u64;
    let emps = store.members(m.ids.employees).len() as u64;
    assert!(emps > 4 * BATCH_ROWS as u64, "several probe batches");
    // Every employee batch costs 1024 scanned + 1024 joined tuples, so
    // this budget survives the build and one batch and expires on the
    // second of five.
    let budget = depts + 3 * BATCH_ROWS as u64;
    let ex = Executor::new(
        &store,
        &env,
        RunLimits {
            row_budget: Some(budget),
            ..Default::default()
        },
    );
    let (run, stats) = ex.try_run(&hhj, false);
    let err = run.unwrap_err();
    assert_eq!(err, ExecError::RowBudgetExceeded { budget });
    assert_eq!(stats.counts.hash_ops, depts + 2 * BATCH_ROWS as u64);
    assert_eq!(stats.leaf_rows, depts + 2 * BATCH_ROWS as u64);
    assert!(stats.leaf_rows < depts + emps, "the scan stopped too");
}

#[test]
fn traced_run_reconciles_with_stats() {
    let (store, m) = generate_paper_db(GenConfig::small());
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (_, t) = qb.get(m.ids.tasks, "t");
    let pred = qb.cmp_const(t, m.ids.task_time, CmpOp::Eq, Value::Int(100));
    let env = qb.into_env();
    let p = plan(
        PhysicalOp::Filter { pred },
        vec![plan(
            PhysicalOp::FileScan {
                coll: m.ids.tasks,
                var: t,
            },
            vec![],
        )],
    );
    let (result, stats, trace) = execute_traced(&store, &env, &p);
    // The trace tree mirrors the plan tree.
    assert_eq!(trace.children.len(), 1);
    assert!(trace.label.starts_with("Filter"), "{}", trace.label);
    assert!(trace.children[0].label.starts_with("File Scan"));
    // Root actual rows equal result cardinality.
    assert_eq!(trace.actual_rows, result.len() as u64);
    // Root (cumulative) I/O equals the run's ExecStats.
    assert_eq!(
        trace.buffer_hits + trace.buffer_misses,
        stats.buffer_hits + stats.buffer_misses
    );
    assert!((trace.sim_io_s - stats.disk.total_s).abs() < 1e-12);
    // The scan produced at least as many rows as survived the filter.
    assert!(trace.children[0].actual_rows >= trace.actual_rows);
    // Untraced execution returns identical results.
    let (plain, _) = execute(&store, &env, &p);
    assert_eq!(plain, result);
}

#[test]
fn nested_projection_is_a_typed_error_not_a_panic() {
    let (store, m) = generate_paper_db(GenConfig::small());
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (_, c) = qb.get(m.ids.cities, "c");
    let items = vec![Operand::VarOid(c)];
    let env = qb.into_env();
    // A projection *below* a filter is malformed: only the root may
    // project. The engine must refuse, not panic.
    let p = plan(
        PhysicalOp::Filter {
            pred: env.preds.intern(oodb_algebra::Pred { terms: vec![] }),
        },
        vec![plan(
            PhysicalOp::AlgProject { items },
            vec![plan(
                PhysicalOp::FileScan {
                    coll: m.ids.cities,
                    var: c,
                },
                vec![],
            )],
        )],
    );
    let err = try_execute(&store, &env, &p, RunLimits::default()).unwrap_err();
    assert!(matches!(err, ExecError::MalformedPlan(_)), "{err:?}");
}

#[test]
fn cancelled_token_stops_the_run() {
    let (store, m) = generate_paper_db(GenConfig::small());
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (_, c) = qb.get(m.ids.cities, "c");
    let env = qb.into_env();
    let scan = plan(
        PhysicalOp::FileScan {
            coll: m.ids.cities,
            var: c,
        },
        vec![],
    );
    let cancel = oodb_fault::CancelToken::new();
    cancel.cancel();
    let limits = RunLimits {
        cancel: Some(cancel),
        ..Default::default()
    };
    assert_eq!(
        try_execute(&store, &env, &scan, limits).unwrap_err(),
        ExecError::Cancelled
    );
}

#[test]
fn row_budget_interrupts_a_scan() {
    let (store, m) = generate_paper_db(GenConfig::small());
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (_, c) = qb.get(m.ids.cities, "c");
    let env = qb.into_env();
    let scan = plan(
        PhysicalOp::FileScan {
            coll: m.ids.cities,
            var: c,
        },
        vec![],
    );
    let limits = RunLimits {
        row_budget: Some(0),
        ..Default::default()
    };
    assert_eq!(
        try_execute(&store, &env, &scan, limits).unwrap_err(),
        ExecError::RowBudgetExceeded { budget: 0 }
    );
}

#[test]
fn injected_faults_surface_as_typed_errors() {
    let (store, m) = generate_paper_db(GenConfig::small());
    let injector = oodb_storage::FaultInjector::new(oodb_storage::FaultConfig {
        read_fault_rate: 1.0,
        ..Default::default()
    });
    let faulty = || RunLimits {
        injector: Some(injector.clone()),
        ..Default::default()
    };
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (_, c) = qb.get(m.ids.cities, "c");
    let env = qb.into_env();
    let scan = plan(
        PhysicalOp::FileScan {
            coll: m.ids.cities,
            var: c,
        },
        vec![],
    );
    let err = try_execute(&store, &env, &scan, faulty()).unwrap_err();
    assert!(matches!(err, ExecError::Fault(_)), "{err:?}");
    // Disabling the injector restores infallible execution.
    injector.set_enabled(false);
    assert!(try_execute(&store, &env, &scan, faulty()).is_ok());
}

#[test]
fn unnest_expands_teams() {
    let (store, m) = generate_paper_db(GenConfig::small());
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (tasks, t) = qb.get(m.ids.tasks, "t");
    let (_, mm) = qb.unnest(tasks, t, m.ids.task_team_members, "m");
    let env = qb.into_env();
    let p = plan(
        PhysicalOp::AlgUnnest { out: mm },
        vec![plan(
            PhysicalOp::FileScan {
                coll: m.ids.tasks,
                var: t,
            },
            vec![],
        )],
    );
    let (res, _) = execute(&store, &env, &p);
    let oracle: usize = store
        .members(m.ids.tasks)
        .iter()
        .map(|&o| {
            store
                .read_field(o, m.ids.task_team_members)
                .as_ref_set()
                .unwrap()
                .len()
        })
        .sum();
    assert_eq!(res.len(), oracle);
}

/// Spill partitioning rehashes `hash_key`s under a per-depth salt: at
/// every depth each of the fan-out partitions gets its share of
/// sequential oids, ints and generated names, so a refused build side
/// really shrinks when it is split.
#[test]
fn spill_partitions_share_sequential_keys_evenly() {
    for (what, keys) in crate::batch::sequential_key_families() {
        for depth in 0..Executor::MAX_SPILL_DEPTH {
            let mut parts = [0usize; Executor::SPILL_FANOUT];
            for k in keys.iter().flatten() {
                parts[Executor::spill_partition(*k, depth)] += 1;
            }
            let mean = keys.len() / parts.len();
            assert!(
                parts.iter().all(|&n| n * 2 >= mean && n <= mean * 2),
                "{what} at depth {depth}: {parts:?}"
            );
        }
    }
}

/// Joins over the mixed store of `eval.rs` — `Base`, `Derived: Base`, and
/// a collection interleaving them — run once as the engine would and once
/// with every table hashed, the form all joins took before one could be
/// addressed by oid. Build rows bind `b`; probe rows bind `p` and `q`.
struct MixedJoin {
    m: crate::eval::tests::Mixed,
    env: QueryEnv,
    derived: oodb_object::TypeId,
}

/// The build side's variable, and the probe side's two.
fn bpq() -> [VarId; 3] {
    [0, 1, 2].map(VarId::from_index)
}

impl MixedJoin {
    fn new() -> Self {
        let m = crate::eval::tests::mixed();
        let env = QueryEnv::new(m.store.schema().clone(), m.store.catalog().clone());
        let derived = m.store.schema().type_by_name("Derived").expect("Derived");
        MixedJoin { m, env, derived }
    }

    fn field(&self, ty: oodb_object::TypeId, name: &str) -> oodb_object::FieldId {
        let field = self.m.store.schema().field_by_name(ty, name);
        field.unwrap_or_else(|| panic!("{name} is a field"))
    }

    /// `probe == b.self` (or flipped), alone, before, or after the
    /// residual `p.n >= b.n`: the link predicate onto the build side.
    fn spec(&self, probe: Operand, shape: usize, flipped: bool) -> JoinSpec<'_> {
        let [b, p, q] = bpq();
        let n = self.field(self.m.base, "n");
        let attr = |var| Operand::Attr { var, field: n };
        let residual = Term {
            left: attr(p),
            op: CmpOp::Ge,
            right: attr(b),
        };
        let (left, right) = match flipped {
            false => (probe, Operand::VarOid(b)),
            true => (Operand::VarOid(b), probe),
        };
        let key = Term {
            left,
            op: CmpOp::Eq,
            right,
        };
        assert!(key.as_ref_eq().is_some(), "the link predicate");
        let terms = match shape {
            0 => vec![key],
            1 => vec![key, residual],
            _ => vec![residual, key],
        };
        let pred = self.env.preds.intern(oodb_algebra::Pred { terms });
        let (spec, cols) = JoinSpec::resolve(&self.env, pred, &[b], &[p, q], "join").unwrap();
        assert_eq!(cols, [b, p, q]);
        spec
    }

    /// The joined rows and what they cost to make, or the error.
    fn join(
        &self,
        spec: &JoinSpec,
        build: &[Oid],
        probe: &[Oid],
        need: u64,
        hashed_only: bool,
    ) -> Result<(Vec<Oid>, OpCounts), ExecError> {
        let mut ex = Executor::new(&self.m.store, &self.env, RunLimits::default());
        ex.hashed_only = hashed_only;
        let joined = ex.join_in_memory(spec, build, probe, need)?;
        Ok((joined.data, ex.counts))
    }
}

/// A dangling oid, an oid of a type the store never heard of, and an
/// object whose type lacks the key field, each in the middle of a probe
/// batch: the oid-addressed table reports what the hashed one does.
#[test]
fn a_bad_probe_key_mid_batch_is_the_same_error_from_either_table() {
    use oodb_storage::StoreError;
    let j = MixedJoin::new();
    let ([_, p, _], base, derived) = (bpq(), j.m.base, j.derived);
    let build: Vec<Oid> = (0..10).map(|i| Oid::new(derived, i)).collect();
    let need = build.len() as u64 * 80;
    let addressed = crate::batch::JoinTable::addressed(build.iter().copied(), need);
    assert!(addressed.is_some_and(|t| t.by_oid()), "a dense build side");
    let peer = Operand::RefField {
        var: p,
        field: j.field(base, "peer"),
    };
    // On `Derived` only.
    let extra = Operand::RefField {
        var: p,
        field: j.field(derived, "extra"),
    };
    let unknown = oodb_object::TypeId::from_index(9);
    let cases = [
        (
            &peer,
            Oid::new(base, 40),
            StoreError::UnknownOid(Oid::new(base, 40)),
        ),
        (
            &peer,
            Oid::new(unknown, 0),
            StoreError::UnknownOid(Oid::new(unknown, 0)),
        ),
        (
            &extra,
            Oid::new(base, 3),
            StoreError::UnknownField {
                ty: base,
                field: j.field(derived, "extra"),
            },
        ),
    ];
    for (key, bad, want) in cases {
        let spec = j.spec(key.clone(), 0, false);
        let mut probe: Vec<Oid> = (0..25).flat_map(|i| [Oid::new(derived, i); 2]).collect();
        let clean = j.join(&spec, &build, &probe, need, false);
        assert_eq!(clean, j.join(&spec, &build, &probe, need, true));
        assert!(clean.is_ok(), "{clean:?}");
        probe[2 * 12] = bad;
        let direct = j.join(&spec, &build, &probe, need, false);
        assert_eq!(direct, Err(ExecError::Corrupt(want)), "{bad:?}");
        assert_eq!(direct, j.join(&spec, &build, &probe, need, true));
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

    /// Duplicate, subtype-mixed, sparse and empty build sides; probe keys
    /// that are references of either type, `Null`, ints and floats, sets,
    /// and the probe row's own oid — below, inside and above the build
    /// side's span, or of a type it does not hold; at most one bad oid
    /// among the probe rows; a reservation from too small for any
    /// oid-addressed table to roomy. Same rows, same counts, same error.
    #[test]
    fn oid_addressed_join_equals_the_hashed_one(
        build in proptest::collection::vec((0usize..2, 0u32..40), 0..24),
        sizing in (0usize..3, 1u64..120),
        pred in (0usize..4, 0usize..3, 0usize..2),
        probe in proptest::collection::vec((0usize..60, 0usize..60), 0..100),
        ghost in (0usize..4, 0usize..200),
    ) {
        let j = MixedJoin::new();
        let (base, derived) = (j.m.base, j.derived);
        let ((one_type, per_row), (key, shape, flipped)) = (sizing, pred);
        let build: Vec<Oid> = build.iter().map(|&(ty, seq)| match (one_type, ty) {
            (0, _) | (2, 0) => Oid::new(base, seq),
            _ => Oid::new(derived, seq % 25),
        }).collect();
        let mut probe: Vec<Oid> =
            probe.iter().flat_map(|&(p, q)| [j.m.members[p], j.m.members[q]]).collect();
        let (kind, at) = ghost;
        if !probe.is_empty() && kind > 0 {
            let at = at % probe.len();
            probe[at] = match kind {
                1 => Oid::new(base, 40),
                2 => Oid::new(base, u32::MAX >> 8),
                _ => Oid::new(oodb_object::TypeId::from_index(9), 0),
            };
        }
        let [_, p, q] = bpq();
        let field = |name| Operand::RefField { var: p, field: j.field(base, name) };
        let key = match key {
            0 => field("peer"),
            1 => field("n"),
            2 => field("set"),
            _ => Operand::VarRef(q),
        };
        let spec = j.spec(key, shape, flipped == 1);
        let need = (build.len() as u64 * per_row).max(1);
        let engine = j.join(&spec, &build, &probe, need, false);
        proptest::prop_assert_eq!(engine, j.join(&spec, &build, &probe, need, true));
    }
}
