//! A minimal complete optimizer model.
//!
//! Serves two purposes: it exercises every framework feature in this
//! crate's unit tests (memo, exhaustive transformation, goal-directed
//! search, enforcers, pruning), and it is a template of what an implementor
//! supplies: property and cost functions ([`OptModel::cost`]), operator
//! tags ([`OptModel::tag`]) and rules that declare the tags they consume
//! ([`RuleSignature`], [`ImplRule::consumes`]).
//! Rules write into buffers the engine owns and reuses:
//!
//! ```text
//! fn apply(&self, model, memo, expr, out: &mut Rewrites<LOp>)
//! fn implementations(&self, model, memo, expr, required, out: &mut Vec<Candidate<M>>)
//! fn enforce(&self, model, memo, group, required, out: &mut Vec<EnforceCandidate<M>>)
//! ```
//!
//! A transformation rule builds each rewrite from nodes — `out.group(g)`
//! for an existing group, `out.op(op, [inputs])` for an operator — and
//! emits its root with `out.emit(root)` ([`Commute`], [`Assoc`]); an
//! implementation rule or enforcer pushes its candidates ([`ScanImpl`],
//! [`HashJoinImpl`], [`SortEnforcer`]).
//!
//! The model is a caricature of relational join ordering: `Table(t)`
//! leaves with catalog cardinalities, a commutative/associative `Join`,
//! hash-join and scan algorithms, a `sorted` physical property deliverable
//! only by an index scan on table 0 or by an explicit `Sort` enforcer.

use crate::inputs::Inputs;
use crate::memo::{Expr, GroupId, Memo, Rewrites};
use crate::model::{
    Candidate, EnforceCandidate, Enforcer, ImplRule, OptModel, RuleSet, RuleSignature,
    TransformRule,
};

/// Toy logical operators.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ToyOp {
    /// Scan of table `t`.
    Table(u32),
    /// Natural join of two inputs.
    Join,
}

/// Toy physical operators.
#[derive(Clone, Debug, PartialEq)]
pub enum ToyPOp {
    /// Heap scan.
    Scan(u32),
    /// Index (sorted) scan; only table 0 has an index.
    SortedScan(u32),
    /// Hash join.
    HashJoin,
    /// Sort enforcer.
    Sort,
}

/// Toy logical properties.
#[derive(Clone, Debug, PartialEq)]
pub struct ToyProps {
    /// Estimated cardinality.
    pub card: f64,
    /// Bitset of base tables covered.
    pub tables: u32,
}

/// Toy physical property vector: sortedness only.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct ToySort {
    /// Output must be (is) sorted.
    pub sorted: bool,
}

/// The toy model: a catalog of table cardinalities.
#[derive(Clone, Debug)]
pub struct Toy {
    /// Cardinality of table `t`.
    pub cards: Vec<f64>,
}

impl Default for Toy {
    fn default() -> Self {
        Toy {
            cards: vec![100.0, 1000.0, 10.0, 10_000.0],
        }
    }
}

impl OptModel for Toy {
    type LOp = ToyOp;
    type POp = ToyPOp;
    type LProps = ToyProps;
    type PProps = ToySort;
    type Cost = f64;

    fn derive_props(&self, op: &ToyOp, inputs: &[&ToyProps]) -> ToyProps {
        match op {
            ToyOp::Table(t) => ToyProps {
                card: self.cards[*t as usize],
                tables: 1 << t,
            },
            ToyOp::Join => ToyProps {
                card: inputs[0].card * inputs[1].card / 10.0,
                tables: inputs[0].tables | inputs[1].tables,
            },
        }
    }

    fn cost(&self, op: &ToyPOp, inputs: &[&ToyProps]) -> f64 {
        match op {
            ToyPOp::Scan(t) => self.cards[*t as usize],
            ToyPOp::SortedScan(t) => self.cards[*t as usize] * 1.2,
            // Build on the smaller side: 2× build + 1× probe.
            ToyPOp::HashJoin => {
                2.0 * inputs[0].card.min(inputs[1].card) + inputs[0].card.max(inputs[1].card)
            }
            ToyPOp::Sort => inputs[0].card * 3.0,
        }
    }

    fn satisfies(&self, required: &ToySort, delivered: &ToySort) -> bool {
        !required.sorted || delivered.sorted
    }

    fn tag(&self, op: &ToyOp) -> &'static str {
        match op {
            ToyOp::Table(_) => "Table",
            ToyOp::Join => "Join",
        }
    }
}

/// Join commutativity.
pub struct Commute;

impl TransformRule<Toy> for Commute {
    fn name(&self) -> &'static str {
        "join-commute"
    }
    fn apply(&self, _m: &Toy, _memo: &Memo<Toy>, expr: &Expr<Toy>, out: &mut Rewrites<ToyOp>) {
        if expr.op != ToyOp::Join {
            return;
        }
        let (b, a) = (out.group(expr.children[1]), out.group(expr.children[0]));
        let root = out.op(ToyOp::Join, [b, a]);
        out.emit(root);
    }
    fn signature(&self) -> RuleSignature {
        RuleSignature {
            consumes: &["Join"],
            produces: &["Join"],
            generative: false,
            reads_inputs: false,
        }
    }
}

/// Left-to-right join associativity — a two-level rule that enumerates the
/// left child group's expressions through the memo.
pub struct Assoc;

impl TransformRule<Toy> for Assoc {
    fn name(&self) -> &'static str {
        "join-assoc"
    }
    fn apply(&self, _m: &Toy, memo: &Memo<Toy>, expr: &Expr<Toy>, out: &mut Rewrites<ToyOp>) {
        if expr.op != ToyOp::Join {
            return;
        }
        for &le in memo.group_exprs(expr.children[0]) {
            let lexpr = memo.expr(le);
            if lexpr.op == ToyOp::Join {
                // (A ⋈ B) ⋈ C  →  A ⋈ (B ⋈ C)
                let [a, b] = [0, 1].map(|i| out.group(lexpr.children[i]));
                let c = out.group(expr.children[1]);
                let bc = out.op(ToyOp::Join, [b, c]);
                let root = out.op(ToyOp::Join, [a, bc]);
                out.emit(root);
            }
        }
    }
    fn signature(&self) -> RuleSignature {
        RuleSignature {
            consumes: &["Join"],
            produces: &["Join"],
            generative: false,
            reads_inputs: true,
        }
    }
}

/// Scan implementations: heap scan always; sorted index scan on table 0.
pub struct ScanImpl;

impl ImplRule<Toy> for ScanImpl {
    fn name(&self) -> &'static str {
        "scan"
    }
    fn consumes(&self) -> &'static [&'static str] {
        &["Table"]
    }
    fn implementations(
        &self,
        _model: &Toy,
        _memo: &Memo<Toy>,
        expr: &Expr<Toy>,
        _required: &ToySort,
        out: &mut Vec<Candidate<Toy>>,
    ) {
        let ToyOp::Table(t) = expr.op else {
            return;
        };
        let scan = |op, sorted| Candidate {
            op,
            inputs: Inputs::none(),
            delivers: ToySort { sorted },
        };
        out.push(scan(ToyPOp::Scan(t), false));
        if t == 0 {
            out.push(scan(ToyPOp::SortedScan(t), true));
        }
    }
}

/// Hash-join implementation (destroys order).
pub struct HashJoinImpl;

impl ImplRule<Toy> for HashJoinImpl {
    fn name(&self) -> &'static str {
        "hash-join"
    }
    fn consumes(&self) -> &'static [&'static str] {
        &["Join"]
    }
    fn implementations(
        &self,
        _model: &Toy,
        _memo: &Memo<Toy>,
        expr: &Expr<Toy>,
        _required: &ToySort,
        out: &mut Vec<Candidate<Toy>>,
    ) {
        if expr.op != ToyOp::Join {
            return;
        }
        out.push(Candidate {
            op: ToyPOp::HashJoin,
            inputs: expr.children.map(|g| (g, ToySort::default())),
            delivers: ToySort { sorted: false },
        });
    }
}

/// Sort enforcer.
pub struct SortEnforcer;

impl Enforcer<Toy> for SortEnforcer {
    fn name(&self) -> &'static str {
        "sort"
    }
    fn enforce(
        &self,
        _model: &Toy,
        _memo: &Memo<Toy>,
        _group: GroupId,
        required: &ToySort,
        out: &mut Vec<EnforceCandidate<Toy>>,
    ) {
        if required.sorted {
            out.push(EnforceCandidate {
                op: ToyPOp::Sort,
                input_props: ToySort { sorted: false },
                delivers: ToySort { sorted: true },
            });
        }
    }
}

/// The full toy rule set.
pub fn toy_rules() -> RuleSet<Toy> {
    RuleSet {
        transforms: vec![Box::new(Commute), Box::new(Assoc)],
        impls: vec![Box::new(ScanImpl), Box::new(HashJoinImpl)],
        enforcers: vec![Box::new(SortEnforcer)],
    }
}
