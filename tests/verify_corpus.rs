//! The verifier over the paper corpus: full optimizer runs on Queries 1–4
//! (and the Figure 2 chain) must produce zero static diagnostics — on the
//! winning plan and, with `verify_search`, on every expression the
//! transformation rules left in the memo. Systematically broken copies of
//! those plans pin what the verifier says about each breakage, line for
//! line, in `tests/golden/verify_diagnostics.txt`.

use oodb_bench::queries;
use oodb_core::config::rule_names;
use oodb_core::{OpenOodb, OptimizerConfig};
use oodb_object::paper::paper_model;

fn assert_clean(name: &str, q: &queries::PaperQuery) {
    let mut config = OptimizerConfig::all_rules();
    config.verify_search = true;
    let out = OpenOodb::with_config(&q.env, config)
        .optimize_ordered(&q.plan, q.result_vars, None)
        .unwrap_or_else(|| panic!("{name}: no feasible plan"));
    assert!(
        out.diagnostics.is_empty(),
        "{name}: verifier diagnostics on a sound run:\n{}",
        out.diagnostics
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn paper_corpus_verifies_clean_with_search_verification() {
    let m = paper_model();
    assert_clean("query1", &queries::query1(&m));
    assert_clean("query2", &queries::query2(&m));
    assert_clean("query3", &queries::query3(&m));
    assert_clean("query4", &queries::query4(&m));
    assert_clean("fig2", &queries::fig2_query(&m));
}

/// The winner-verification hook also runs under ablated configurations —
/// the paper's "W/o Comm." and "W/o Window" plans are shaped differently
/// (pointer chasing, single-object windows) but equally sound.
#[test]
fn ablated_configs_verify_clean() {
    let m = paper_model();
    let q = queries::query1(&m);
    for (name, config) in [
        ("wo-comm", OptimizerConfig::without_join_commutativity()),
        ("wo-window", OptimizerConfig::without_window()),
    ] {
        let out = OpenOodb::with_config(&q.env, config)
            .optimize(&q.plan, q.result_vars)
            .unwrap_or_else(|| panic!("{name}: no feasible plan"));
        assert!(out.diagnostics.is_empty(), "{name}: {:?}", out.diagnostics);
    }
}

// ---------------------------------------------------------------------------
// Mutation golden: what the verifier says about systematically broken plans
// ---------------------------------------------------------------------------

use oodb_algebra::{
    LogicalOp, LogicalPlan, Operand, PhysProps, PhysicalOp, PhysicalPlan, PredId, SortSpec, VarId,
};
use oodb_core::verify::{checks, lint_logical, verify_physical, Diagnostic};
use oodb_object::{CollectionId, IndexId};

/// Every mutant's diagnostics, one `Display` line each behind its label.
/// `OODB_GOLDEN_BLESS=1` rewrites the file.
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/verify_diagnostics.txt"
);

/// An arena index no paper environment reaches.
const DANGLING: usize = 999;

/// A variable id past every paper query's scope arena, but inside the 64
/// variables a `VarSet` can hold.
const DANGLING_VAR: usize = 63;

/// The one tree shape mutations need from both plan kinds.
trait Tree: Clone {
    fn kids(&self) -> &[Self];
    fn kids_mut(&mut self) -> &mut Vec<Self>;
}

impl Tree for LogicalPlan {
    fn kids(&self) -> &[Self] {
        &self.children
    }
    fn kids_mut(&mut self) -> &mut Vec<Self> {
        &mut self.children
    }
}

impl Tree for PhysicalPlan {
    fn kids(&self) -> &[Self] {
        &self.children
    }
    fn kids_mut(&mut self) -> &mut Vec<Self> {
        &mut self.children
    }
}

/// Every node's path from the root, parents before children.
fn paths<T: Tree>(t: &T, at: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    out.push(at.clone());
    for (i, c) in t.kids().iter().enumerate() {
        at.push(i);
        paths(c, at, out);
        at.pop();
    }
}

fn node<'a, T: Tree>(t: &'a T, path: &[usize]) -> &'a T {
    path.iter().fold(t, |n, &i| &n.kids()[i])
}

fn node_mut<'a, T: Tree>(t: &'a mut T, path: &[usize]) -> &'a mut T {
    path.iter().fold(t, |n, &i| &mut n.kids_mut()[i])
}

/// A copy of `root` with `f` applied to the node at `path`.
fn mutate<T: Tree>(root: &T, path: &[usize], f: impl FnOnce(&mut T)) -> T {
    let mut m = root.clone();
    f(node_mut(&mut m, path));
    m
}

/// Drop or duplicate each child: the shape mutations both trees share.
fn child_mutants<T: Tree>(root: &T, path: &[usize]) -> Vec<(String, T)> {
    let mut out = Vec::new();
    for i in 0..node(root, path).kids().len() {
        out.push((
            format!("drop child {i}"),
            mutate(root, path, |n| {
                n.kids_mut().remove(i);
            }),
        ));
        out.push((
            format!("duplicate child {i}"),
            mutate(root, path, |n| {
                let c = n.kids()[i].clone();
                n.kids_mut().insert(i + 1, c);
            }),
        ));
    }
    out
}

fn dangling_var() -> VarId {
    VarId::from_index(DANGLING_VAR)
}

fn dangling_pred() -> PredId {
    PredId::from_index(DANGLING)
}

/// The first projection item that names a variable, pointed out of range.
fn dangle_first_item(items: &mut [Operand]) -> bool {
    for item in items {
        match item {
            Operand::Attr { var, .. }
            | Operand::RefField { var, .. }
            | Operand::VarOid(var)
            | Operand::VarRef(var) => {
                *var = dangling_var();
                return true;
            }
            _ => {}
        }
    }
    false
}

fn logical_mutants(plan: &LogicalPlan) -> Vec<(String, LogicalPlan)> {
    let mut all = Vec::new();
    let mut ps = Vec::new();
    paths(plan, &mut Vec::new(), &mut ps);
    for path in ps {
        let at = |what: &str| {
            format!(
                "{} {what}",
                path_label(&path, logical_op_name(&node(plan, &path).op))
            )
        };
        let mut out = child_mutants(plan, &path);
        let m = |f: fn(&mut LogicalOp)| mutate(plan, &path, |n| f(&mut n.op));
        match &node(plan, &path).op {
            LogicalOp::Get { .. } => {
                out.push((
                    "var out of range".into(),
                    m(|op| {
                        if let LogicalOp::Get { var, .. } = op {
                            *var = dangling_var();
                        }
                    }),
                ));
                out.push((
                    "collection out of range".into(),
                    m(|op| {
                        if let LogicalOp::Get { coll, .. } = op {
                            *coll = CollectionId::from_index(DANGLING);
                        }
                    }),
                ));
            }
            LogicalOp::Select { .. } | LogicalOp::Join { .. } => out.push((
                "pred out of range".into(),
                m(|op| {
                    if let LogicalOp::Select { pred } | LogicalOp::Join { pred } = op {
                        *pred = dangling_pred();
                    }
                }),
            )),
            LogicalOp::Mat { .. } | LogicalOp::Unnest { .. } => out.push((
                "out var out of range".into(),
                m(|op| {
                    if let LogicalOp::Mat { out } | LogicalOp::Unnest { out } = op {
                        *out = dangling_var();
                    }
                }),
            )),
            LogicalOp::Project { .. } => out.push((
                "item var out of range".into(),
                m(|op| {
                    if let LogicalOp::Project { items } = op {
                        dangle_first_item(items);
                    }
                }),
            )),
            LogicalOp::SetOp { .. } => {}
        }
        all.extend(out.into_iter().map(|(what, t)| (at(&what), t)));
    }
    all
}

fn physical_mutants(plan: &PhysicalPlan) -> Vec<(String, PhysicalPlan)> {
    let mut all = Vec::new();
    let mut ps = Vec::new();
    paths(plan, &mut Vec::new(), &mut ps);
    for path in ps {
        let here = node(plan, &path);
        let at = |what: &str| format!("{} {what}", path_label(&path, here.op.name()));
        let mut out = child_mutants(plan, &path);
        let m = |f: &dyn Fn(&mut PhysicalOp)| mutate(plan, &path, |n| f(&mut n.op));
        let pred_ref = |op: &mut PhysicalOp| match op {
            PhysicalOp::IndexScan { pred, .. }
            | PhysicalOp::Filter { pred }
            | PhysicalOp::HybridHashJoin { pred }
            | PhysicalOp::PointerJoin { pred }
            | PhysicalOp::MergeJoin { pred } => *pred = dangling_pred(),
            _ => unreachable!("no predicate"),
        };
        match &here.op {
            PhysicalOp::FileScan { .. } => {
                out.push((
                    "var out of range".into(),
                    m(&|op| {
                        if let PhysicalOp::FileScan { var, .. } = op {
                            *var = dangling_var();
                        }
                    }),
                ));
                out.push((
                    "collection out of range".into(),
                    m(&|op| {
                        if let PhysicalOp::FileScan { coll, .. } = op {
                            *coll = CollectionId::from_index(DANGLING);
                        }
                    }),
                ));
            }
            PhysicalOp::IndexScan { .. } => {
                out.push((
                    "var out of range".into(),
                    m(&|op| {
                        if let PhysicalOp::IndexScan { var, .. } = op {
                            *var = dangling_var();
                        }
                    }),
                ));
                out.push(("pred out of range".into(), m(&pred_ref)));
                out.push((
                    "index out of range".into(),
                    m(&|op| {
                        if let PhysicalOp::IndexScan { index, .. } = op {
                            *index = IndexId::from_index(DANGLING);
                        }
                    }),
                ));
            }
            PhysicalOp::Filter { .. }
            | PhysicalOp::PointerJoin { .. }
            | PhysicalOp::MergeJoin { .. } => {
                out.push(("pred out of range".into(), m(&pred_ref)));
            }
            PhysicalOp::HybridHashJoin { .. } => {
                out.push(("pred out of range".into(), m(&pred_ref)));
                if here.children.len() == 2 {
                    out.push((
                        "swap inputs".into(),
                        mutate(plan, &path, |n| n.children.swap(0, 1)),
                    ));
                }
            }
            PhysicalOp::Assembly { targets, .. } => {
                for i in 0..targets.len() {
                    out.push((
                        format!("target {i} out of range"),
                        m(&|op| {
                            if let PhysicalOp::Assembly { targets, .. } = op {
                                targets[i] = dangling_var();
                            }
                        }),
                    ));
                }
                out.push((
                    "window 0".into(),
                    m(&|op| {
                        if let PhysicalOp::Assembly { window, .. } = op {
                            *window = 0;
                        }
                    }),
                ));
                out.extend(assembly_mutants(plan, &path));
            }
            PhysicalOp::WarmAssembly { .. } => {
                out.push((
                    "target out of range".into(),
                    m(&|op| {
                        if let PhysicalOp::WarmAssembly { target } = op {
                            *target = dangling_var();
                        }
                    }),
                ));
                out.extend(assembly_mutants(plan, &path));
            }
            PhysicalOp::AlgProject { .. } => out.push((
                "item var out of range".into(),
                m(&|op| {
                    if let PhysicalOp::AlgProject { items } = op {
                        dangle_first_item(items);
                    }
                }),
            )),
            PhysicalOp::AlgUnnest { .. } => out.push((
                "out var out of range".into(),
                m(&|op| {
                    if let PhysicalOp::AlgUnnest { out } = op {
                        *out = dangling_var();
                    }
                }),
            )),
            PhysicalOp::Sort { .. } => {
                out.push((
                    "key var out of range".into(),
                    m(&|op| {
                        if let PhysicalOp::Sort { key } = op {
                            key.var = dangling_var();
                        }
                    }),
                ));
                out.push((
                    "key retargeted".into(),
                    m(&|op| {
                        if let PhysicalOp::Sort { key } = op {
                            let other = usize::from(key.var.index() == 0);
                            *key = SortSpec {
                                var: VarId::from_index(other),
                                field: key.field,
                            };
                        }
                    }),
                ));
            }
            PhysicalOp::HashSetOp { .. } => {}
        }
        for field in ["io_s", "cpu_s", "out_card"] {
            for (how, f) in [
                ("negative", (|_| -1.0) as fn(f64) -> f64),
                ("NaN", |_| f64::NAN),
                ("x1e6", |v| v * 1e6),
            ] {
                out.push((
                    format!("{field} {how}"),
                    mutate(plan, &path, |n| {
                        let slot = match field {
                            "io_s" => &mut n.est.io_s,
                            "cpu_s" => &mut n.est.cpu_s,
                            _ => &mut n.est.out_card,
                        };
                        *slot = f(*slot);
                    }),
                ));
            }
        }
        all.extend(out.into_iter().map(|(what, t)| (at(&what), t)));
    }
    all
}

/// Splice an assembly out (its input takes its place), or stack a second
/// copy on top of it.
fn assembly_mutants(plan: &PhysicalPlan, path: &[usize]) -> Vec<(String, PhysicalPlan)> {
    vec![
        (
            "spliced out".into(),
            mutate(plan, path, |n| {
                if let Some(c) = n.children.first().cloned() {
                    *n = c;
                }
            }),
        ),
        (
            "stacked twice".into(),
            mutate(plan, path, |n| {
                let copy = n.clone();
                n.children = vec![copy];
            }),
        ),
    ]
}

fn path_label(path: &[usize], op: &str) -> String {
    let mut s = String::from("root");
    for i in path {
        s.push_str(&format!(".{i}"));
    }
    format!("{s} {op}")
}

fn logical_op_name(op: &LogicalOp) -> &'static str {
    match op {
        LogicalOp::Get { .. } => "Get",
        LogicalOp::Select { .. } => "Select",
        LogicalOp::Project { .. } => "Project",
        LogicalOp::Join { .. } => "Join",
        LogicalOp::Mat { .. } => "Mat",
        LogicalOp::Unnest { .. } => "Unnest",
        LogicalOp::SetOp { kind } => kind.name(),
    }
}

fn record(out: &mut String, label: &str, diags: &[Diagnostic]) {
    if diags.is_empty() {
        out.push_str(&format!("{label}: clean\n"));
    }
    for d in diags {
        out.push_str(&format!("{label}: {d}\n"));
    }
}

#[test]
fn verifier_mutation_golden() {
    let m = paper_model();
    let all = OptimizerConfig::all_rules;
    let mut corpus = vec![
        ("q1", queries::query1(&m), None, all()),
        ("q2", queries::query2(&m), None, all()),
        ("q3", queries::query3(&m), None, all()),
        ("q4", queries::query4(&m), None, all()),
        ("fig2", queries::fig2_query(&m), None, all()),
    ];
    // Query 2 ordered by an unindexed attribute: the winner carries a Sort.
    let q2 = queries::query2(&m);
    let order = Some(SortSpec {
        var: q2.var("c"),
        field: m.ids.city_population,
    });
    corpus.push(("q2-ordered", q2, order, all()));
    // Query 2 with warm-start assembly on and the index collapse off: the
    // winner carries a Warm Assembly.
    let mut warm = all().and_without(rule_names::COLLAPSE_TO_INDEX_SCAN);
    warm.disabled_rules.remove(rule_names::WARM_ASSEMBLY);
    corpus.push(("q2-warm", queries::query2(&m), None, warm));

    let mut got = String::new();
    for (name, q, order, config) in &corpus {
        record(
            &mut got,
            &format!("{name}/logical unmutated"),
            &lint_logical(&q.env, &q.plan),
        );
        for (label, mutant) in logical_mutants(&q.plan) {
            record(
                &mut got,
                &format!("{name}/logical {label}"),
                &lint_logical(&q.env, &mutant),
            );
        }
        let opt = OpenOodb::with_config(&q.env, config.clone());
        let out = opt
            .optimize_ordered(&q.plan, q.result_vars, *order)
            .unwrap_or_else(|| panic!("{name}: no feasible plan"));
        let required = PhysProps {
            in_memory: opt.model().objify(q.result_vars),
            order: *order,
        };
        record(
            &mut got,
            &format!("{name}/physical unmutated"),
            &verify_physical(&q.env, &out.plan, required),
        );
        for (label, mutant) in physical_mutants(&out.plan) {
            record(
                &mut got,
                &format!("{name}/physical {label}"),
                &verify_physical(&q.env, &mutant, required),
            );
        }
    }

    if std::env::var("OODB_GOLDEN_BLESS").is_ok_and(|v| v != "0") {
        std::fs::write(GOLDEN, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect("golden file present");
    // Every unmutated plan verifies clean; the mutants are what carry lines.
    for name in corpus.iter().map(|(n, ..)| n) {
        for kind in ["logical", "physical"] {
            let line = format!("{name}/{kind} unmutated: clean");
            assert!(want.lines().any(|l| l == line), "missing `{line}`");
        }
    }
    let differing: Vec<String> = got
        .lines()
        .zip(want.lines())
        .enumerate()
        .filter(|(_, (g, w))| g != w)
        .take(10)
        .map(|(n, (g, w))| format!("line {}:\n  want {w}\n  got  {g}", n + 1))
        .collect();
    assert!(
        got == want,
        "verifier diagnostics moved ({} lines now, {} recorded); first differences:\n{}",
        got.lines().count(),
        want.lines().count(),
        differing.join("\n")
    );
}

/// A variable id past the 64 a `VarSet` holds dangles like any other: the
/// verifier names it instead of overflowing a shift (or, in a release
/// build, reading it as `v0`).
#[test]
fn a_variable_past_the_varset_is_dangling_not_a_panic() {
    let m = paper_model();
    let q = queries::query2(&m);
    let opt = OpenOodb::with_config(&q.env, OptimizerConfig::all_rules());
    let winner = opt
        .optimize(&q.plan, q.result_vars)
        .expect("query2 plans")
        .plan;
    let mut ps = Vec::new();
    paths(&winner, &mut Vec::new(), &mut ps);
    let scan = ps
        .iter()
        .find(|p| matches!(node(&winner, p).op, PhysicalOp::IndexScan { .. }))
        .expect("Query 2's winner scans an index");
    let mutant = mutate(&winner, scan, |n| {
        if let PhysicalOp::IndexScan { var, .. } = &mut n.op {
            *var = VarId::from_index(64);
        }
    });
    let required = PhysProps {
        in_memory: opt.model().objify(q.result_vars),
        order: None,
    };
    let diags = verify_physical(&q.env, &mutant, required);
    assert!(
        diags
            .iter()
            .any(|d| d.check == checks::DANGLING_VAR && d.actual.contains("v64")),
        "{diags:?}"
    );
}
