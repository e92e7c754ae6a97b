//! What a pipeline is made of: its source, the streaming stages above it,
//! and the resolved join predicate the hash- and merge-join code shares.

use super::{ExecError, OpCounts};
use crate::batch::{Batch, JoinTable};
use crate::eval::{Pred, Slot};
use oodb_algebra::{CmpOp, Operand, PhysicalOp, PhysicalPlan, PredId, QueryEnv, VarId};
use oodb_object::{CollectionId, FieldId, Oid, Value};
use oodb_storage::Store;
use std::borrow::Cow;

/// A batch with its layout: which variable each column binds.
pub(super) type Bound = (Batch, Vec<VarId>);

/// Where a pipeline's batches come from.
pub(super) enum Source {
    /// A file scan, streamed from the collection's member list; `id` is
    /// the scan's plan node.
    Scan { coll: CollectionId, id: usize },
    /// The finished output of an operator that needed its whole input.
    Rows(Batch),
}

/// A streaming operator: a pure function from one batch to the next.
pub(super) enum Stage<'a> {
    Filter(Pred<'a>),
    Unnest {
        /// Column of the set's owner.
        src: usize,
        /// The set-valued field.
        field: FieldId,
        /// Column each member is bound in.
        out: usize,
    },
    /// The probe half of an in-memory hash join.
    Probe {
        spec: JoinSpec<'a>,
        table: JoinTable,
        build: Batch,
    },
}

impl<'a> Stage<'a> {
    pub(super) fn apply(
        &self,
        store: &'a Store,
        mut input: Batch,
        counts: &mut OpCounts,
    ) -> Result<Batch, ExecError> {
        match self {
            Stage::Filter(pred) => {
                counts.preds += pred.filter(store, &mut input).map_err(ExecError::Corrupt)?;
                Ok(input)
            }
            Stage::Unnest { src, field, out } => {
                let sets = Slot::Field {
                    col: *src,
                    field: *field,
                };
                let sets = sets
                    .values(store, input.rows())
                    .map_err(ExecError::Corrupt)?;
                let mut unnested = Batch::new(input.width.max(out + 1));
                for (row, set) in input.rows().zip(&sets) {
                    let set = set
                        .as_ref_set()
                        .ok_or_else(|| malformed("unnest field must be set-valued"))?;
                    counts.tuples += set.len() as u64;
                    for &member in set {
                        unnested.push_bound(row, *out, member);
                    }
                }
                Ok(unnested)
            }
            Stage::Probe { spec, table, build } => {
                let mut joined = Batch::new(spec.width());
                spec.probe(table, &build.data, store, &input.data, &mut joined, counts)?;
                Ok(joined)
            }
        }
    }
}

/// A source and the streaming operators above it, bottom-up, each with
/// its plan node. Operators exchange batches of `cols` bindings.
pub(super) struct Pipeline<'a> {
    pub(super) source: Source,
    pub(super) stages: Vec<(usize, Stage<'a>)>,
    /// The layout of the batches the last stage (or the source) emits.
    pub(super) cols: Vec<VarId>,
    /// Grant bytes held for a [`Stage::Probe`] table until the run ends.
    pub(super) reserved: u64,
}

impl Pipeline<'_> {
    pub(super) fn rows((batch, cols): Bound) -> Self {
        Pipeline {
            source: Source::Rows(batch),
            stages: Vec::new(),
            cols,
            reserved: 0,
        }
    }
}

/// A join predicate resolved against its two inputs: the equality keys,
/// the full predicate over the joined row, and the joined row's shape
/// (the build row, then the probe columns the build side does not bind).
pub(super) struct JoinSpec<'a> {
    pub(super) build_key: Slot<'a>,
    pub(super) probe_key: Slot<'a>,
    /// The build column whose oids are the build keys, when the key term
    /// is the link predicate: such a build side can be addressed by oid.
    pub(super) build_oids: Option<usize>,
    /// Whether the key term is the predicate's first.
    key_first: bool,
    pred: Pred<'a>,
    keep: Vec<usize>,
    pub(super) build_width: usize,
    pub(super) probe_width: usize,
}

impl<'a> JoinSpec<'a> {
    /// Resolves `pred` for build rows of layout `build` and probe rows of
    /// layout `probe`; also returns the joined layout. The first equality
    /// term supplies the keys, oriented by which side binds its operands —
    /// a static decision, so empty inputs orient like any other.
    pub(super) fn resolve(
        env: &'a QueryEnv,
        pred: PredId,
        build: &[VarId],
        probe: &[VarId],
        what: &str,
    ) -> Result<(Self, Vec<VarId>), ExecError> {
        let terms = &env.preds.pred(pred).terms;
        let at = terms
            .iter()
            .position(|t| t.op == CmpOp::Eq)
            .ok_or_else(|| malformed(format!("{what} needs an equality term")))?;
        let eq = &terms[at];
        let binds = |cols: &[VarId], op: &Operand| op.var().is_some_and(|v| cols.contains(&v));
        let (build_op, probe_op) = if binds(build, &eq.left) || binds(probe, &eq.right) {
            (&eq.left, &eq.right)
        } else {
            (&eq.right, &eq.left)
        };
        let mut cols = build.to_vec();
        let mut keep = Vec::new();
        for (c, v) in probe.iter().enumerate() {
            if !build.contains(v) {
                cols.push(*v);
                keep.push(c);
            }
        }
        let build_key = Slot::resolve(build_op, build)?;
        let spec = JoinSpec {
            build_oids: match build_key {
                Slot::Oid(col) if eq.as_ref_eq().is_some() => Some(col),
                _ => None,
            },
            build_key,
            probe_key: Slot::resolve(probe_op, probe)?,
            key_first: at == 0,
            pred: Pred::resolve(env, pred, &cols)?,
            keep,
            build_width: build.len(),
            probe_width: probe.len(),
        };
        Ok((spec, cols))
    }

    pub(super) fn width(&self) -> usize {
        self.build_width + self.keep.len()
    }

    /// Appends the join of `build` row and `probe` row to `out` when the
    /// full predicate holds on it (hash collisions, residual conjuncts);
    /// its first `decided` terms are counted, not evaluated.
    pub(super) fn emit(
        &self,
        store: &'a Store,
        build: &[Oid],
        probe: &[Oid],
        decided: usize,
        out: &mut Batch,
        counts: &mut OpCounts,
    ) -> Result<bool, ExecError> {
        let start = out.data.len();
        out.data.extend_from_slice(build);
        out.data.extend(self.keep.iter().map(|&c| probe[c]));
        let (ok, n) = self
            .pred
            .test(store, &out.data[start..], decided)
            .map_err(ExecError::Corrupt)?;
        counts.preds += n;
        if !ok {
            out.data.truncate(start);
        }
        Ok(ok)
    }

    /// Probes `table` (built over the rows of `build`) with every row of
    /// `input`, appending matches to `out` in probe order.
    pub(super) fn probe(
        &self,
        table: &JoinTable,
        build: &[Oid],
        store: &'a Store,
        input: &[Oid],
        out: &mut Batch,
        counts: &mut OpCounts,
    ) -> Result<(), ExecError> {
        let bw = self.build_width;
        let rows = input.chunks_exact(self.probe_width);
        counts.hash_ops += rows.len() as u64;
        if table.by_oid() {
            // The batch's keys are read before its first row is joined, as
            // below, but only (probe row, key) of those that meet a build
            // row are kept. The operand is taken apart by value: borrowed
            // as a `&Value`, it would go through memory on every row.
            let (mut hits, mut r) = (Vec::with_capacity(rows.len()), 0);
            let read = self.probe_key.eval_each(store, rows, |key| {
                if let Cow::Borrowed(&Value::Ref(oid)) | Cow::Owned(Value::Ref(oid)) = key {
                    let key = oid.as_u64();
                    if table.matches(key).next().is_some() {
                        hits.push((r, key));
                    }
                }
                r += 1;
            });
            read.map_err(ExecError::Corrupt)?;
            out.data.reserve(hits.len() * self.width());
            // An oid has no collisions to rule out: a key that is the
            // predicate's first term is counted as a short-circuiting test
            // would count it, and only the terms after it are evaluated.
            let (decided, pw) = (usize::from(self.key_first), self.probe_width);
            for (r, key) in hits {
                let row = &input[r * pw..(r + 1) * pw];
                for i in table.matches(key) {
                    let build = &build[i * bw..(i + 1) * bw];
                    let joined = self.emit(store, build, row, decided, out, counts)?;
                    counts.tuples += u64::from(joined);
                }
            }
            return Ok(());
        }
        let mut keys = Vec::with_capacity(rows.len());
        self.probe_key
            .hash_keys(store, rows.clone(), &mut keys)
            .map_err(ExecError::Corrupt)?;
        for (row, key) in rows.zip(keys) {
            let Some(key) = key else { continue };
            for i in table.matches(key) {
                if self.emit(store, &build[i * bw..(i + 1) * bw], row, 0, out, counts)? {
                    counts.tuples += 1;
                }
            }
        }
        Ok(())
    }
}

pub(super) fn malformed(msg: impl Into<String>) -> ExecError {
    ExecError::MalformedPlan(msg.into())
}

pub(super) fn child(plan: &PhysicalPlan, i: usize) -> Result<&PhysicalPlan, ExecError> {
    plan.children
        .get(i)
        .ok_or_else(|| malformed(format!("{} is missing input {i}", plan.op.name())))
}

/// Plan nodes in the subtree; a node's trace slot is its preorder index.
pub(super) fn nodes(plan: &PhysicalPlan) -> usize {
    1 + plan.children.iter().map(nodes).sum::<usize>()
}

/// Whether any operator of the subtree reserves from the memory grant.
pub(super) fn reserves(plan: &PhysicalPlan) -> bool {
    matches!(
        plan.op,
        PhysicalOp::HybridHashJoin { .. }
            | PhysicalOp::Assembly { .. }
            | PhysicalOp::HashSetOp { .. }
    ) || plan.children.iter().any(reserves)
}

/// The column binding `var`, appended to the layout when new.
pub(super) fn bind(cols: &mut Vec<VarId>, var: VarId) -> usize {
    cols.iter().position(|&c| c == var).unwrap_or_else(|| {
        cols.push(var);
        cols.len() - 1
    })
}
