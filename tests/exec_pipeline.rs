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
        store
            .insert_columns(g, GROUPS as usize, groups, 100)
            .unwrap();
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
        store.insert_columns(p, n as usize, objects, 100).unwrap();
        store
            .set_members(gs, (0..GROUPS).map(|i| Oid::new(g, i)).collect())
            .unwrap();
        store
            .set_members(ps, (0..n).map(|i| Oid::new(p, i)).collect())
            .unwrap();
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
        let ex = Executor::new(&f.store, &env, RunLimits::default());
        let (outcome, stats) = ex.try_run_rows(&plan, false, &mut |row| {
            sink.borrow_mut().push(match row {
                RootRow::Cells(cells) => format!("{cells:?}"),
                RootRow::Bound(cols, oids) => {
                    let at = |v| cols.iter().position(|&c| c == v).expect("bound");
                    format!("{:?} {:?}", oids[at(p)], oids[at(g)])
                }
            })
        });
        outcome.expect("runs");
        let want: Vec<String> = match run(&f, &env, &plan).0 {
            ExecResult::Rows(rows) => rows.iter().map(|r| format!("{r:?}")).collect(),
            ExecResult::Tuples(ts) => ts
                .iter()
                .map(|t| format!("{:?} {:?}", t.get(p), t.get(g)))
                .collect(),
        };
        assert_eq!(want.len(), 4097);
        assert_eq!(*lines.borrow(), want);
        assert_eq!(stats.root_rows, 4097);
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
    let ex = Executor::new(
        &f.store,
        &env,
        RunLimits {
            row_budget: Some(budget),
            ..Default::default()
        },
    );
    let (run, stats) = ex.try_run(&join, false);
    assert_eq!(run.unwrap_err(), ExecError::RowBudgetExceeded { budget });
    assert_eq!(stats.leaf_rows, u64::from(GROUPS) + 2 * BATCH);
    assert_eq!(stats.counts.hash_ops, u64::from(GROUPS) + 2 * BATCH);
}

/// Injected read latency makes a batch take longer than the deadline, so
/// the deadline passes inside the first batch and stops the run at its
/// end, with three batches of the scan unread.
#[test]
fn deadline_trips_between_two_batches_of_one_pipeline() {
    let f = Fixture::new(4097);
    let injector = FaultInjector::new(FaultConfig {
        latency_ns: 300_000,
        ..Default::default()
    });
    let mut qb = f.builder();
    let (_, p) = qb.get(f.ps, "p");
    let pred = qb.cmp_const(p, f.k, CmpOp::Ge, Value::Int(0));
    let env = qb.into_env();
    let filter = plan(PhysicalOp::Filter { pred }, vec![scan(f.ps, p)]);
    let ex = Executor::new(
        &f.store,
        &env,
        RunLimits {
            deadline: Some(Instant::now() + Duration::from_millis(250)),
            injector: Some(injector),
            ..Default::default()
        },
    );
    let (run, stats) = ex.try_run(&filter, false);
    assert_eq!(run.unwrap_err(), ExecError::DeadlineExceeded);
    assert_eq!(stats.leaf_rows, BATCH, "stopped after the first batch");
    assert_eq!(stats.counts.preds, BATCH);
}

/// A token cancelled once the run is under way (the watcher waits for the
/// scan's first page reads) stops it at a batch boundary.
#[test]
fn cancellation_trips_between_two_batches_of_one_pipeline() {
    let f = Fixture::new(4097);
    let injector = FaultInjector::new(FaultConfig {
        latency_ns: 100_000,
        ..Default::default()
    });
    let mut qb = f.builder();
    let (_, p) = qb.get(f.ps, "p");
    let env = qb.into_env();
    let cancel = CancelToken::new();
    let ex = Executor::new(
        &f.store,
        &env,
        RunLimits {
            cancel: Some(cancel.clone()),
            injector: Some(injector.clone()),
            ..Default::default()
        },
    );
    let (run, stats) = std::thread::scope(|s| {
        s.spawn(|| {
            while injector.stats().latency_events < 8 {
                std::thread::yield_now();
            }
            cancel.cancel();
        });
        ex.try_run(&scan(f.ps, p), false)
    });
    assert_eq!(run.unwrap_err(), ExecError::Cancelled);
    let read = stats.leaf_rows;
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

/// The paper database, and the link joins over it whose build sides take
/// each form a join table has. Which form a build side takes is not
/// observable from outside — rows, order and every counter are the same —
/// so each case asserts the side of the rule its build side is on, then
/// compares the join with a nested loop over the same rows.
mod link_joins {
    use super::*;
    use open_oodb::algebra::VarId;
    use open_oodb::exec::Tuple;
    use open_oodb::object::paper::PaperModel;

    fn paper(scale_div: u64) -> (Store, PaperModel) {
        generate_paper_db(GenConfig {
            scale_div,
            ..Default::default()
        })
    }

    /// Whether a join of a query with `n_vars` variables addresses a
    /// table over `build` keys by oid: they are of one type, and four
    /// bytes a slot of their span and four a row fit in the reservation
    /// (a row's 16 bytes a variable and 80 of overhead).
    fn addressed(build: &[Oid], n_vars: u64) -> bool {
        let seqs = || build.iter().map(|o| u64::from(o.seq()));
        let span = seqs().max().unwrap_or(0) - seqs().min().unwrap_or(0) + 1;
        let rows = build.len() as u64;
        build.iter().all(|o| o.type_id() == build[0].type_id())
            && 4 * (span + rows) <= rows * (16 * n_vars + 80)
    }

    /// `(probe, build)` of every pair with `probe.field == build`, probe
    /// rows outermost: the rows of a hash join, in its order.
    fn nested_loop(store: &Store, probe: &[Oid], field: FieldId, build: &[Oid]) -> Vec<(Oid, Oid)> {
        let pairs = probe.iter().flat_map(|&p| {
            let key = store.read_field(p, field).as_ref_oid();
            build
                .iter()
                .filter(move |&&b| key == Some(b))
                .map(move |&b| (p, b))
        });
        pairs.collect()
    }

    fn pairs(res: &ExecResult, probe: VarId, build: VarId) -> Vec<(Oid, Oid)> {
        let pair = |t: &Tuple| (t.get(probe), t.get(build));
        res.tuples().iter().map(pair).collect()
    }

    /// `probe_coll.field == build_coll`'s members, joined by the engine
    /// and by the nested loop; `direct` is the form the build side takes.
    fn check(
        store: &Store,
        m: &PaperModel,
        probe: CollectionId,
        field: FieldId,
        build: CollectionId,
        direct: bool,
    ) {
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (_, p) = qb.get(probe, "p");
        let (_, b) = qb.get(build, "b");
        let pred = qb.ref_eq(p, field, b);
        let env = qb.into_env();
        let members = store.members(build);
        assert_eq!(addressed(members, 2), direct, "{} rows", members.len());
        let join = plan(
            PhysicalOp::HybridHashJoin { pred },
            vec![scan(build, b), scan(probe, p)],
        );
        let (res, stats) = try_execute(store, &env, &join, RunLimits::default()).expect("runs");
        let want = nested_loop(store, store.members(probe), field, members);
        assert!(!want.is_empty(), "a join that finds something");
        assert_eq!(pairs(&res, p, b), want);
        let rows = (members.len() + store.members(probe).len()) as u64;
        assert_eq!(stats.counts.hash_ops, rows, "one op a row, either form");
        assert_eq!(stats.counts.preds, want.len() as u64, "one term a pair");
    }

    #[test]
    fn a_dense_extent_is_addressed_by_oid() {
        let (store, m) = paper(100);
        let ids = &m.ids;
        check(&store, &m, ids.employees, ids.emp_job, ids.job_extent, true);
    }

    #[test]
    fn a_collection_mixing_a_type_with_its_subtype_is_hashed() {
        let (mut store, m) = paper(100);
        let ids = &m.ids;
        let (persons, employees) = (
            store.members(ids.person_extent),
            store.members(ids.employees),
        );
        let mixed = persons.iter().zip(employees).flat_map(|(&p, &e)| [p, e]);
        let mixed: Vec<Oid> = mixed.collect();
        assert!(mixed.len() > 100, "{} persons and employees", mixed.len());
        store.set_members(ids.person_extent, mixed).unwrap();
        check(
            &store,
            &m,
            ids.cities,
            ids.city_mayor,
            ids.person_extent,
            false,
        );
    }

    #[test]
    fn two_rows_at_the_far_ends_of_an_extent_are_hashed() {
        let (mut store, m) = paper(10);
        let ids = &m.ids;
        let depts = store.members(ids.department_extent);
        let ends = vec![depts[0], depts[depts.len() - 1]];
        assert!(ends[1].seq() >= 99, "a hundred departments");
        store.set_members(ids.department_extent, ends).unwrap();
        check(
            &store,
            &m,
            ids.employees,
            ids.emp_dept,
            ids.department_extent,
            false,
        );
        // Neighbours, by the same rule, are addressed.
        let depts = store.members(ids.job_extent)[3..5].to_vec();
        store.set_members(ids.job_extent, depts).unwrap();
        check(&store, &m, ids.employees, ids.emp_job, ids.job_extent, true);
    }

    /// The build side is itself a join's output, each department once per
    /// employee of it: an oid-addressed table with chains, which come back
    /// in build order.
    #[test]
    fn a_join_result_with_repeated_oids_is_addressed_through_chains() {
        let (store, m) = paper(100);
        let ids = &m.ids;
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (_, d) = qb.get(ids.department_extent, "d");
        let (_, e) = qb.get(ids.employees, "e");
        let (_, f) = qb.get(ids.employees, "f");
        let (works_in, also_in) = (qb.ref_eq(e, ids.emp_dept, d), qb.ref_eq(f, ids.emp_dept, d));
        let env = qb.into_env();
        let inner = plan(
            PhysicalOp::HybridHashJoin { pred: works_in },
            vec![scan(ids.department_extent, d), scan(ids.employees, e)],
        );
        let outer = plan(
            PhysicalOp::HybridHashJoin { pred: also_in },
            vec![inner, scan(ids.employees, f)],
        );
        let (res, _) = try_execute(&store, &env, &outer, RunLimits::default()).expect("runs");
        let (depts, emps) = (
            store.members(ids.department_extent),
            store.members(ids.employees),
        );
        // The inner join's rows, in its order: the outer build side.
        let built = nested_loop(&store, emps, ids.emp_dept, depts);
        let keys: Vec<Oid> = built.iter().map(|&(_, d)| d).collect();
        assert!(addressed(&keys, 3) && keys.len() > 10 * depts.len());
        let want: Vec<(Oid, Oid, Oid)> = emps
            .iter()
            .flat_map(|&f| {
                let key = store.read_field(f, ids.emp_dept).as_ref_oid();
                let same = built.iter().filter(move |&&(_, d)| key == Some(d));
                same.map(move |&(e, d)| (f, e, d))
            })
            .collect();
        let got: Vec<_> = res
            .tuples()
            .iter()
            .map(|t| (t.get(f), t.get(e), t.get(d)))
            .collect();
        assert_eq!(got.len(), want.len());
        assert!(got == want, "probe order, then build order");
    }

    /// Query 1's join at a quarter of the memory it asks for: the build
    /// side is refused, both sides are partitioned and spilled, and every
    /// partition pair builds a table of its own — addressed by oid where
    /// its few departments lie close together, hashed where they do not.
    #[test]
    fn a_spilled_join_builds_a_table_per_partition() {
        let (store, m) = paper(10);
        let ids = &m.ids;
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (_, d) = qb.get(ids.department_extent, "d");
        let (_, e) = qb.get(ids.employees, "e");
        let third = qb.cmp_const(d, ids.dept_floor, CmpOp::Eq, Value::Int(3));
        let pred = qb.ref_eq(e, ids.emp_dept, d);
        let env = qb.into_env();
        let on_third = plan(
            PhysicalOp::Filter { pred: third },
            vec![scan(ids.department_extent, d)],
        );
        let join = plan(
            PhysicalOp::HybridHashJoin { pred },
            vec![on_third, scan(ids.employees, e)],
        );
        let (whole, roomy) = try_execute(&store, &env, &join, RunLimits::default()).expect("runs");
        let tight = RunLimits {
            mem_budget: Some(roomy.mem.peak_bytes / 4),
            ..Default::default()
        };
        let (parts, stats) = try_execute(&store, &env, &join, tight).expect("runs");
        assert!(stats.mem.spilled_partitions > 1, "{:?}", stats.mem);
        assert!(stats.mem.peak_bytes <= roomy.mem.peak_bytes / 4);
        let depts: Vec<Oid> = (store.members(ids.department_extent).iter().copied())
            .filter(|&d| store.read_field(d, ids.dept_floor) == &Value::Int(3))
            .collect();
        assert!(
            depts.len() > 8,
            "{} departments on the third floor",
            depts.len()
        );
        let want = nested_loop(&store, store.members(ids.employees), ids.emp_dept, &depts);
        assert_eq!(pairs(&whole, e, d), want);
        let (mut got, mut want) = (pairs(&parts, e, d), want);
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "partition by partition, the same pairs");
    }
}
