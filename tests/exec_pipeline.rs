//! The batch pipeline at its edges: every streaming operator at 0, 1,
//! 1023, 1024, 1025 and 4097 input rows (around one batch, and five of
//! them), run limits that trip between two batches of one pipeline, and
//! the plan shapes the engine must refuse or order totally.
//!
//! The store is synthetic so row counts are exact: `n` objects of type
//! `P` (40 to a page, so batches and pages never align) referencing 8
//! objects of type `G`.

use open_oodb::algebra::{CmpOp, Operand, PlanEst, SortSpec};
use open_oodb::exec::tuple::RootRow;
use open_oodb::exec::{ExecError, ExecResult};
use open_oodb::object::{
    AttrType, CollectionDef, CollectionId, CollectionKind, FieldId, FieldKind, Oid,
};
use open_oodb::prelude::*;
use open_oodb::storage::datagen::columns;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

const GROUPS: u32 = 8;
const BATCH: u64 = 1024;
const EDGES: [u32; 6] = [0, 1, 1023, 1024, 1025, 4097];

struct Fixture {
    store: Store,
    ps: CollectionId,
    gs: CollectionId,
    /// `P.k`: the object's sequence number.
    k: FieldId,
    /// `P.key`: NULL, int, float and string values, for sorting.
    key: FieldId,
    /// `P.g`: a reference to group `k % 8`.
    g_ref: FieldId,
    /// `P.gs`: groups `k % 8` and `(k + 1) % 8`, or nothing when `3 | k`.
    g_set: FieldId,
    /// `G.id`: the group's sequence number.
    id: FieldId,
}

fn sort_key(k: u32) -> Value {
    match k % 4 {
        0 => Value::Null,
        1 => Value::Int(-i64::from(k)),
        2 => Value::Float(f64::from(k) / 2.0),
        _ => Value::str(&format!("s{:04}", 9999 - k)),
    }
}

fn members(k: u32) -> Vec<u32> {
    if k.is_multiple_of(3) {
        return Vec::new();
    }
    let mut both = vec![k % GROUPS, (k + 1) % GROUPS];
    both.sort_unstable();
    both
}

impl Fixture {
    fn new(n: u32) -> Self {
        let mut b = Schema::builder();
        let g = b.add_type("G", None);
        let id = b.add_field(g, "id", FieldKind::Attr(AttrType::Int));
        let p = b.add_type("P", None);
        let k = b.add_field(p, "k", FieldKind::Attr(AttrType::Int));
        let key = b.add_field(p, "key", FieldKind::Attr(AttrType::Int));
        let g_ref = b.add_field(p, "g", FieldKind::Ref(g));
        let g_set = b.add_field(p, "gs", FieldKind::RefSet(g));
        let mut catalog = Catalog::new();
        let mut extent = |name: &str, elem_type, cardinality: u32| {
            catalog.add_collection(CollectionDef {
                name: name.into(),
                elem_type,
                kind: CollectionKind::Extent,
                cardinality: u64::from(cardinality),
                obj_bytes: 100,
            })
        };
        let (gs, ps) = (extent("Gs", g, GROUPS), extent("Ps", p, n));
        let mut store = Store::new(b.build(), catalog);
        let groups = columns(GROUPS.into(), |i| [Value::Int(i as i64)]);
        store.insert_columns(g, GROUPS as usize, groups, 100);
        let objects = columns(n.into(), |i| {
            let i = i as u32;
            let set = members(i).into_iter().map(|m| Oid::new(g, m));
            [
                Value::Int(i.into()),
                sort_key(i),
                Value::Ref(Oid::new(g, i % GROUPS)),
                Value::RefSet(set.collect()),
            ]
        });
        store.insert_columns(p, n as usize, objects, 100);
        store.set_members(gs, (0..GROUPS).map(|i| Oid::new(g, i)).collect());
        store.set_members(ps, (0..n).map(|i| Oid::new(p, i)).collect());
        Fixture {
            store,
            ps,
            gs,
            k,
            key,
            g_ref,
            g_set,
            id,
        }
    }

    fn builder(&self) -> QueryBuilder {
        QueryBuilder::new(self.store.schema().clone(), self.store.catalog().clone())
    }
}

fn plan(op: PhysicalOp, children: Vec<PhysicalPlan>) -> PhysicalPlan {
    PhysicalPlan {
        op,
        children,
        est: PlanEst::default(),
    }
}

fn scan(coll: CollectionId, var: open_oodb::algebra::VarId) -> PhysicalPlan {
    plan(PhysicalOp::FileScan { coll, var }, vec![])
}

fn run(
    f: &Fixture,
    env: &QueryEnv,
    plan: &PhysicalPlan,
) -> (ExecResult, open_oodb::exec::ExecStats) {
    try_execute(&f.store, env, plan, RunLimits::default()).expect("runs")
}

#[test]
fn scan_streams_every_member_with_one_miss_per_page() {
    for n in EDGES {
        let f = Fixture::new(n);
        let mut qb = f.builder();
        let (_, p) = qb.get(f.ps, "p");
        let env = qb.into_env();
        let (res, stats) = run(&f, &env, &scan(f.ps, p));
        let got: Vec<Oid> = res.tuples().iter().map(|t| t.get(p)).collect();
        assert_eq!(got, f.store.members(f.ps), "n = {n}");
        assert_eq!(stats.counts.tuples, u64::from(n));
        assert_eq!(stats.buffer_hits + stats.buffer_misses, u64::from(n));
        assert_eq!(stats.buffer_misses, u64::from(n.div_ceil(40)), "n = {n}");
    }
}

#[test]
fn filter_keeps_order_across_batches() {
    for n in EDGES {
        let f = Fixture::new(n);
        let mut qb = f.builder();
        let (_, p) = qb.get(f.ps, "p");
        // Drops the first third, so survivors straddle batch boundaries.
        let pred = qb.cmp_const(p, f.k, CmpOp::Ge, Value::Int((n / 3).into()));
        let env = qb.into_env();
        let filter = plan(PhysicalOp::Filter { pred }, vec![scan(f.ps, p)]);
        let (res, stats) = run(&f, &env, &filter);
        let got: Vec<u32> = res.tuples().iter().map(|t| t.get(p).seq()).collect();
        assert_eq!(got, (n / 3..n).collect::<Vec<_>>(), "n = {n}");
        assert_eq!(stats.counts.preds, u64::from(n));
    }
}

#[test]
fn unnest_expands_each_set_in_place() {
    for n in EDGES {
        let f = Fixture::new(n);
        let mut qb = f.builder();
        let (ps, p) = qb.get(f.ps, "p");
        let (_, m) = qb.unnest(ps, p, f.g_set, "m");
        let env = qb.into_env();
        let unnest = plan(PhysicalOp::AlgUnnest { out: m }, vec![scan(f.ps, p)]);
        let (res, stats) = run(&f, &env, &unnest);
        let got: Vec<(u32, u32)> = res
            .tuples()
            .iter()
            .map(|t| (t.get(p).seq(), t.get(m).seq()))
            .collect();
        let want: Vec<(u32, u32)> = (0..n)
            .flat_map(|k| members(k).into_iter().map(move |g| (k, g)))
            .collect();
        assert_eq!(got, want, "n = {n}");
        assert_eq!(stats.counts.tuples, u64::from(n) + want.len() as u64);
    }
}

#[test]
fn hash_join_probe_and_projection_stream_the_probe_side() {
    for n in EDGES {
        let f = Fixture::new(n);
        let mut qb = f.builder();
        let (_, p) = qb.get(f.ps, "p");
        let (_, g) = qb.get(f.gs, "g");
        let pred = qb.ref_eq(p, f.g_ref, g);
        let items = vec![qb.attr(p, f.k), qb.attr(g, f.id)];
        let env = qb.into_env();
        let join = plan(
            PhysicalOp::HybridHashJoin { pred },
            vec![scan(f.gs, g), scan(f.ps, p)],
        );
        let (res, stats) = run(&f, &env, &join);
        let got: Vec<(u32, u32)> = res
            .tuples()
            .iter()
            .map(|t| (t.get(p).seq(), t.get(g).seq()))
            .collect();
        let want: Vec<(u32, u32)> = (0..n).map(|k| (k, k % GROUPS)).collect();
        assert_eq!(got, want, "n = {n}");
        assert_eq!(stats.counts.hash_ops, u64::from(GROUPS + n));

        let project = plan(PhysicalOp::AlgProject { items }, vec![join]);
        let (res, _) = run(&f, &env, &project);
        let ExecResult::Rows(rows) = res else {
            panic!("projected")
        };
        let want: Vec<Vec<Value>> = (0..n)
            .map(|k| vec![Value::Int(k.into()), Value::Int((k % GROUPS).into())])
            .collect();
        assert_eq!(rows, want, "n = {n}");
    }
}

/// The root's consumer is an ordinary `FnMut` on the calling thread: one
/// that pushes into an `Rc<RefCell<_>>` — neither `Send` nor `Sync` — sees
/// every row of a projecting and of a non-projecting plan, in the order
/// `try_execute` collects them.
#[test]
fn root_consumer_runs_on_the_calling_thread_in_produced_order() {
    let f = Fixture::new(4097);
    let mut qb = f.builder();
    let (_, p) = qb.get(f.ps, "p");
    let (_, g) = qb.get(f.gs, "g");
    let pred = qb.ref_eq(p, f.g_ref, g);
    let items = vec![qb.attr(p, f.k), qb.attr(g, f.id)];
    let env = qb.into_env();
    let join = plan(
        PhysicalOp::HybridHashJoin { pred },
        vec![scan(f.gs, g), scan(f.ps, p)],
    );
    let project = plan(PhysicalOp::AlgProject { items }, vec![join.clone()]);
    for plan in [join, project] {
        let lines = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&lines);
        let mut ex = Executor::new(&f.store, &env);
        ex.try_run_rows(&plan, false, &mut |row| {
            sink.borrow_mut().push(match row {
                RootRow::Cells(cells) => format!("{cells:?}"),
                RootRow::Bound(cols, oids) => {
                    let at = |v| cols.iter().position(|&c| c == v).expect("bound");
                    format!("{:?} {:?}", oids[at(p)], oids[at(g)])
                }
            })
        })
        .expect("runs");
        let want: Vec<String> = match run(&f, &env, &plan).0 {
            ExecResult::Rows(rows) => rows.iter().map(|r| format!("{r:?}")).collect(),
            ExecResult::Tuples(ts) => ts
                .iter()
                .map(|t| format!("{:?} {:?}", t.get(p), t.get(g)))
                .collect(),
        };
        assert_eq!(want.len(), 4097);
        assert_eq!(*lines.borrow(), want);
        assert_eq!(ex.stats().root_rows, 4097);
    }
}

/// The Q4 shape: scan → unnest → probe → filter → project in one pipeline.
#[test]
fn fused_unnest_probe_filter_project_agree_with_the_oracle() {
    for n in EDGES {
        let f = Fixture::new(n);
        let mut qb = f.builder();
        let (ps, p) = qb.get(f.ps, "p");
        let (_, m) = qb.unnest(ps, p, f.g_set, "m");
        let (_, g) = qb.get(f.gs, "g");
        let join = qb.deref_eq(m, g);
        let small = qb.cmp_const(g, f.id, CmpOp::Lt, Value::Int(3));
        let items = vec![qb.attr(p, f.k), qb.attr(g, f.id)];
        let env = qb.into_env();
        let unnest = plan(PhysicalOp::AlgUnnest { out: m }, vec![scan(f.ps, p)]);
        let probe = plan(
            PhysicalOp::HybridHashJoin { pred: join },
            vec![scan(f.gs, g), unnest],
        );
        let filter = plan(PhysicalOp::Filter { pred: small }, vec![probe]);
        let (res, _) = run(
            &f,
            &env,
            &plan(PhysicalOp::AlgProject { items }, vec![filter]),
        );
        let ExecResult::Rows(rows) = res else {
            panic!("projected")
        };
        let want: Vec<Vec<Value>> = (0..n)
            .flat_map(|k| members(k).into_iter().map(move |g| (k, g)))
            .filter(|&(_, g)| g < 3)
            .map(|(k, g)| vec![Value::Int(k.into()), Value::Int(g.into())])
            .collect();
        assert_eq!(rows, want, "n = {n}");
    }
}

/// A budget that survives the build side and one probe batch expires at
/// the next batch boundary: the probe side is not even scanned to the end.
#[test]
fn row_budget_trips_between_two_batches_of_one_pipeline() {
    let f = Fixture::new(4097);
    let mut qb = f.builder();
    let (_, p) = qb.get(f.ps, "p");
    let (_, g) = qb.get(f.gs, "g");
    let pred = qb.ref_eq(p, f.g_ref, g);
    let env = qb.into_env();
    let join = plan(
        PhysicalOp::HybridHashJoin { pred },
        vec![scan(f.gs, g), scan(f.ps, p)],
    );
    // Each probe batch costs 1024 scanned + 1024 joined tuples.
    let budget = u64::from(GROUPS) + 3 * BATCH;
    let mut ex = Executor::new(&f.store, &env);
    ex.set_limits(RunLimits {
        row_budget: Some(budget),
        ..Default::default()
    });
    assert_eq!(
        ex.try_run(&join).unwrap_err(),
        ExecError::RowBudgetExceeded { budget }
    );
    assert_eq!(ex.stats().leaf_rows, u64::from(GROUPS) + 2 * BATCH);
    assert_eq!(ex.stats().counts.hash_ops, u64::from(GROUPS) + 2 * BATCH);
}

/// Injected read latency makes a batch take longer than the deadline, so
/// the deadline passes inside the first batch and stops the run at its
/// end, with three batches of the scan unread.
#[test]
fn deadline_trips_between_two_batches_of_one_pipeline() {
    let mut f = Fixture::new(4097);
    f.store
        .attach_fault_injector(FaultInjector::new(FaultConfig {
            latency_ns: 300_000,
            ..Default::default()
        }));
    let mut qb = f.builder();
    let (_, p) = qb.get(f.ps, "p");
    let pred = qb.cmp_const(p, f.k, CmpOp::Ge, Value::Int(0));
    let env = qb.into_env();
    let filter = plan(PhysicalOp::Filter { pred }, vec![scan(f.ps, p)]);
    let mut ex = Executor::new(&f.store, &env);
    ex.set_limits(RunLimits {
        deadline: Some(Instant::now() + Duration::from_millis(250)),
        ..Default::default()
    });
    assert_eq!(
        ex.try_run(&filter).unwrap_err(),
        ExecError::DeadlineExceeded
    );
    assert_eq!(ex.stats().leaf_rows, BATCH, "stopped after the first batch");
    assert_eq!(ex.stats().counts.preds, BATCH);
}

/// A token cancelled once the run is under way (the watcher waits for the
/// scan's first page reads) stops it at a batch boundary.
#[test]
fn cancellation_trips_between_two_batches_of_one_pipeline() {
    let mut f = Fixture::new(4097);
    let injector = FaultInjector::new(FaultConfig {
        latency_ns: 100_000,
        ..Default::default()
    });
    f.store.attach_fault_injector(injector.clone());
    let mut qb = f.builder();
    let (_, p) = qb.get(f.ps, "p");
    let env = qb.into_env();
    let cancel = CancelToken::new();
    let mut ex = Executor::new(&f.store, &env);
    ex.set_limits(RunLimits {
        cancel: Some(cancel.clone()),
        ..Default::default()
    });
    let err = std::thread::scope(|s| {
        s.spawn(|| {
            while injector.stats().latency_events < 8 {
                std::thread::yield_now();
            }
            cancel.cancel();
        });
        ex.try_run(&scan(f.ps, p)).unwrap_err()
    });
    assert_eq!(err, ExecError::Cancelled);
    let read = ex.stats().leaf_rows;
    assert!(
        (BATCH..4097).contains(&read),
        "stopped mid-scan, at {read} rows"
    );
    assert_eq!(read % BATCH, 0, "at a batch boundary");
}

/// Sort orders NULLs and mixed-type keys by the total order merge join
/// walks; the old partial comparison was not an order at all on these.
#[test]
fn sort_is_total_over_null_and_mixed_keys() {
    let f = Fixture::new(1025);
    let mut qb = f.builder();
    let (_, p) = qb.get(f.ps, "p");
    let env = qb.into_env();
    let key = SortSpec {
        var: p,
        field: f.key,
    };
    let sort = plan(PhysicalOp::Sort { key }, vec![scan(f.ps, p)]);
    let (res, _) = run(&f, &env, &sort);
    let got: Vec<u32> = res.tuples().iter().map(|t| t.get(p).seq()).collect();
    let mut want: Vec<u32> = (0..1025).collect();
    want.sort_by(|&a, &b| sort_key(a).total_cmp_val(&sort_key(b)));
    assert!(got == want, "stable, total order");
    let keys: Vec<Value> = got.iter().map(|&k| sort_key(k)).collect();
    assert!(keys.windows(2).all(|w| w[0].total_cmp_val(&w[1]).is_le()));
    assert_eq!(keys[0], Value::Null, "NULLs first");
    assert!(matches!(keys[1024], Value::Str(_)), "strings last");
}

/// Reading a variable the input does not bind is refused when the
/// pipeline is opened — a typed error, not a panic inside the run.
#[test]
fn unbound_variables_are_malformed_plans() {
    let f = Fixture::new(10);
    let mut qb = f.builder();
    let (_, p) = qb.get(f.ps, "p");
    let (_, g) = qb.get(f.gs, "g");
    let on_g = qb.cmp_const(g, f.id, CmpOp::Eq, Value::Int(1));
    let join = qb.ref_eq(p, f.g_ref, g);
    let env = qb.into_env();
    let malformed = |bad: PhysicalPlan| {
        let err = try_execute(&f.store, &env, &bad, RunLimits::default()).unwrap_err();
        assert!(matches!(err, ExecError::MalformedPlan(_)), "{err:?}");
    };
    // A filter, a projection and a sort over `g`, above a scan of `p`.
    malformed(plan(PhysicalOp::Filter { pred: on_g }, vec![scan(f.ps, p)]));
    malformed(plan(
        PhysicalOp::AlgProject {
            items: vec![Operand::VarOid(g)],
        },
        vec![scan(f.ps, p)],
    ));
    let key = SortSpec {
        var: g,
        field: f.id,
    };
    malformed(plan(PhysicalOp::Sort { key }, vec![scan(f.ps, p)]));
    // A join whose key variable neither input binds.
    malformed(plan(
        PhysicalOp::HybridHashJoin { pred: join },
        vec![scan(f.ps, p), scan(f.ps, p)],
    ));
}

/// Which operand keys which side is decided from the inputs' layouts, so
/// it holds with either side empty and with the children swapped.
#[test]
fn hash_join_orients_its_keys_on_empty_inputs() {
    for (n, swapped) in [(0, false), (0, true), (5, false), (5, true)] {
        let f = Fixture::new(n);
        let mut qb = f.builder();
        let (_, p) = qb.get(f.ps, "p");
        let (_, g) = qb.get(f.gs, "g");
        let pred = qb.ref_eq(p, f.g_ref, g);
        let env = qb.into_env();
        let mut children = vec![scan(f.gs, g), scan(f.ps, p)];
        if swapped {
            children.reverse();
        }
        let join = plan(PhysicalOp::HybridHashJoin { pred }, children);
        let (res, _) = run(&f, &env, &join);
        let mut got: Vec<(u32, u32)> = res
            .tuples()
            .iter()
            .map(|t| (t.get(p).seq(), t.get(g).seq()))
            .collect();
        got.sort_unstable();
        let want: Vec<(u32, u32)> = (0..n).map(|k| (k, k % GROUPS)).collect();
        assert_eq!(got, want, "n = {n}, swapped = {swapped}");
    }
}
