//! The executor: physical operators over the simulated store, run as
//! pipelines of flat binding batches.

mod operators;
mod pipeline;

use crate::batch::{Batch, BATCH_ROWS};
use crate::eval::{col_of, Pred, Slot};
use crate::tuple::{RootRow, Tuple};
use oodb_algebra::{PhysicalOp, PhysicalPlan, QueryEnv, VarOrigin};
use oodb_fault::{Fault, RunLimits};
use oodb_mem::MemoryGrant;
use oodb_object::{Oid, Value};
use oodb_storage::{DiskStats, Io, PageId, Store, PAGE_BYTES};
use oodb_telemetry::OpTrace;
use pipeline::{bind, child, malformed, nodes, Bound, Pipeline, Source, Stage};
use std::borrow::Cow;
use std::fmt;
use std::time::Instant;

/// A structured execution failure. Replaces the panic paths the engine
/// grew up with: storage faults, cooperative cancellation, deadline and
/// row-budget expiry, and malformed plans/traces all surface as typed
/// errors the service can map to user-visible failures.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// The storage layer reported an (injected) read fault.
    Fault(Fault),
    /// The run's [`oodb_fault::CancelToken`] was cancelled.
    Cancelled,
    /// The run's deadline passed at a batch boundary.
    DeadlineExceeded,
    /// The run materialized more tuples than its budget allows.
    RowBudgetExceeded {
        /// The budget that was exceeded.
        budget: u64,
    },
    /// The run's memory grant could not cover even the smallest working
    /// unit (one hash-table chunk row, one staged set-op flag vector):
    /// spilling and staging were tried and still did not fit.
    MemoryExhausted {
        /// Bytes the failing reservation asked for.
        requested: u64,
        /// The per-query budget in force (`u64::MAX` = governor-capped
        /// only).
        budget: u64,
    },
    /// The plan is not executable (the static verifier should have caught
    /// this; reaching here indicates an optimizer or caller bug).
    MalformedPlan(String),
    /// Trace-tree bookkeeping broke during a traced run.
    MalformedTrace(String),
    /// An object dereference hit inconsistent store state (dangling OID,
    /// missing region). Reachable on partially recovered databases; the
    /// engine reports it instead of panicking so recovery-time probes and
    /// replay validation stay total.
    Corrupt(oodb_storage::StoreError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Fault(fault) => write!(f, "{fault}"),
            ExecError::Cancelled => write!(f, "query cancelled"),
            ExecError::DeadlineExceeded => write!(f, "execution deadline exceeded"),
            ExecError::RowBudgetExceeded { budget } => {
                write!(f, "row budget of {budget} tuples exceeded")
            }
            ExecError::MemoryExhausted { requested, budget } => {
                write!(
                    f,
                    "memory grant exhausted: {requested} bytes requested, budget {budget}"
                )
            }
            ExecError::MalformedPlan(msg) => write!(f, "malformed plan: {msg}"),
            ExecError::MalformedTrace(msg) => write!(f, "malformed trace: {msg}"),
            ExecError::Corrupt(e) => write!(f, "corrupt store state: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// CPU-ish operation counts, reported instead of seconds so callers apply
/// their own calibrated constants.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Tuples produced by scans/unnests/projections.
    pub tuples: u64,
    /// Predicate terms evaluated.
    pub preds: u64,
    /// Join-table builds + probes, one per row on either side. An
    /// oid-addressed table hashes nothing and still counts: this is the
    /// observed side of the cost model's per-hash-op term.
    pub hash_ops: u64,
    /// Reference dereferences (assembly / pointer join).
    pub derefs: u64,
}

/// Memory-governance effort for one run: what the grant held at peak and
/// what overflow work the governed operators performed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemEffort {
    /// High-water mark of bytes reserved by this run's grant.
    pub peak_bytes: u64,
    /// Pages written to spill partitions (also in `disk.spill_writes`).
    pub spill_pages_written: u64,
    /// Pages read back from spill partitions.
    pub spill_pages_read: u64,
    /// Hash-join partitions that overflowed to simulated disk.
    pub spilled_partitions: u64,
    /// Reservations the grant refused this run.
    pub grant_denials: u64,
}

/// Execution statistics: simulated I/O plus operation counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecStats {
    /// Disk statistics (sequential/random/elevator reads, simulated
    /// seconds).
    pub disk: DiskStats,
    /// Operation counts.
    pub counts: OpCounts,
    /// Buffer-pool hits.
    pub buffer_hits: u64,
    /// Buffer-pool misses.
    pub buffer_misses: u64,
    /// Memory-grant accounting (peak bytes, spill traffic, denials).
    pub mem: MemEffort,
    /// Rows the run delivered at the plan root — the always-on cardinality
    /// sample the feedback loop compares against the root estimate, live
    /// even on the untraced hot path.
    pub root_rows: u64,
    /// Rows produced by leaf scans (file + index) this run — the
    /// denominator for untraced selectivity attribution.
    pub leaf_rows: u64,
}

/// Result rows: raw tuples, or projected values when the plan root is a
/// projection.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecResult {
    /// Variable bindings (no projection at the root).
    Tuples(Vec<Tuple>),
    /// Projected rows.
    Rows(Vec<Vec<Value>>),
}

impl ExecResult {
    /// Number of result rows.
    pub fn len(&self) -> usize {
        match self {
            ExecResult::Tuples(t) => t.len(),
            ExecResult::Rows(r) => r.len(),
        }
    }

    /// True when the result is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tuples, panicking on projected results.
    pub fn tuples(&self) -> &[Tuple] {
        match self {
            ExecResult::Tuples(t) => t,
            ExecResult::Rows(_) => panic!("result was projected"),
        }
    }
}

/// Wall clock and I/O counters at one instant, for per-operator trace
/// deltas.
struct Mark {
    at: Instant,
    buffer: (u64, u64),
    disk: DiskStats,
}

fn trace_lost() -> ExecError {
    ExecError::MalformedTrace("trace lost a plan node".into())
}

/// One zeroed trace node per plan node, in preorder.
fn trace_slots(env: &QueryEnv, plan: &PhysicalPlan, out: &mut Vec<OpTrace>) {
    out.push(OpTrace {
        label: oodb_algebra::display::render_physical_op(env, &plan.op),
        ..OpTrace::default()
    });
    for c in &plan.children {
        trace_slots(env, c, out);
    }
}

/// Folds the preorder slots, which hold each operator's *own* time and
/// I/O, into the trace tree, whose nodes include their children's.
fn fold_trace(plan: &PhysicalPlan, slots: &mut impl Iterator<Item = OpTrace>) -> Option<OpTrace> {
    let mut node = slots.next()?;
    for c in &plan.children {
        let kid = fold_trace(c, slots)?;
        node.elapsed_ns += kid.elapsed_ns;
        node.buffer_hits += kid.buffer_hits;
        node.buffer_misses += kid.buffer_misses;
        node.sim_io_s += kid.sim_io_s;
        node.spill_pages += kid.spill_pages;
        node.children.push(kid);
    }
    Some(node)
}

/// The plan executor: one run of one plan. [`Executor::new`] takes the
/// run's [`RunLimits`]; the run consumes the executor and returns its
/// [`ExecStats`] beside the outcome, failed runs included. Every counter,
/// its private buffer pool's hits and misses among them, starts at zero,
/// so the statistics are that run's alone.
///
/// A plan runs as **pipelines** of flat binding batches: a file scan
/// streams ≤1024-row batches through the filters, unnests and in-memory
/// hash-join probes above it, up to the root or to the next operator that
/// needs its whole input (a hash-join build, a sort, a set operation, a
/// pointer join or assembly, whose elevator sweeps span their input). Such
/// an operator drains its child pipeline into one batch, runs, and is the
/// source of the next pipeline.
///
/// Buffer hits and misses are the pool's own counts; a traced run reads
/// them around each operator's work to attribute them to it.
pub struct Executor<'a> {
    store: &'a Store,
    env: &'a QueryEnv,
    /// The I/O stack (buffer pool + simulated disk).
    io: Io,
    counts: OpCounts,
    /// During a traced run, one slot per plan node in preorder, holding
    /// the operator's own rows, time and I/O; empty otherwise.
    trace: Vec<OpTrace>,
    /// Cooperative run limits (deadline, cancellation, row budget),
    /// checked at every batch boundary.
    limits: RunLimits,
    /// This run's memory grant, drawn from the run's governor (when it
    /// has one) under `RunLimits::mem_budget`.
    /// Operators reserve against it in coarse units (a hash table, a
    /// partition, an assembly window) — never per row — and at most one
    /// reservation is live at a time.
    grant: MemoryGrant,
    /// Hash-join partitions spilled to simulated disk.
    spilled_partitions: u64,
    /// Rows produced by leaf scans (file + index).
    leaf_rows: u64,
    /// Rows the run delivered at its root.
    root_rows: u64,
    /// The oracle of the engine's tests: every join table hashed, as all
    /// were before one could be addressed by oid.
    #[cfg(test)]
    hashed_only: bool,
}

impl<'a> Executor<'a> {
    /// Creates the executor of one run under `limits`, with a private
    /// buffer pool sized for the paper's DECstation. The limits are checked
    /// at every batch boundary, inside streaming pipelines and inside the
    /// loops of operators that hold their whole input, so a runaway
    /// operator is interrupted mid-flight.
    pub fn new(store: &'a Store, env: &'a QueryEnv, limits: RunLimits) -> Self {
        let mut io = Io::decstation();
        // Route page access through the run's fault injector when it has
        // one — the executor is where injected read faults surface.
        io.set_fault_injector(limits.injector.clone());
        let grant = match &limits.governor {
            Some(gov) => gov.grant(limits.mem_budget),
            None => MemoryGrant::detached(limits.mem_budget),
        };
        Executor {
            store,
            env,
            io,
            counts: OpCounts::default(),
            trace: Vec::new(),
            limits,
            grant,
            spilled_partitions: 0,
            leaf_rows: 0,
            root_rows: 0,
            #[cfg(test)]
            hashed_only: false,
        }
    }

    /// Checks cancellation, deadline, and row budget. Cheap when the run
    /// is unlimited (three `Option` tests, no clock read).
    fn checkpoint(&self) -> Result<(), ExecError> {
        if let Some(c) = &self.limits.cancel {
            if c.is_cancelled() {
                return Err(ExecError::Cancelled);
            }
        }
        if let Some(d) = self.limits.deadline {
            if Instant::now() >= d {
                return Err(ExecError::DeadlineExceeded);
            }
        }
        if let Some(budget) = self.limits.row_budget {
            if self.counts.tuples > budget {
                return Err(ExecError::RowBudgetExceeded { budget });
            }
        }
        Ok(())
    }

    /// The run's statistics.
    fn stats(&self) -> ExecStats {
        let disk = self.io.disk_stats();
        let (buffer_hits, buffer_misses) = self.io.buffer_stats();
        ExecStats {
            disk,
            counts: self.counts,
            buffer_hits,
            buffer_misses,
            mem: MemEffort {
                peak_bytes: self.grant.peak(),
                spill_pages_written: disk.spill_writes,
                spill_pages_read: disk.spill_reads,
                spilled_partitions: self.spilled_partitions,
                grant_denials: self.grant.denials(),
            },
            root_rows: self.root_rows,
            leaf_rows: self.leaf_rows,
        }
    }

    /// Runs a plan to completion, collecting its rows, and records a
    /// per-operator [`OpTrace`] when `traced`: actual rows, wall-clock
    /// time, and buffer/disk traffic for every node of the plan tree,
    /// operators fused into one pipeline included. This is `EXPLAIN
    /// ANALYZE`. Faults, cancellation, and limit expiry surface as
    /// [`ExecError`]s.
    pub fn try_run(
        self,
        plan: &PhysicalPlan,
        traced: bool,
    ) -> (Result<(ExecResult, Option<OpTrace>), ExecError>, ExecStats) {
        self.run_root(plan, traced, |ex| ex.collect_root(plan))
    }

    /// Runs a plan to completion, handing every result row to `emit` as
    /// the root pipeline produces it — borrowed, before anything is cloned
    /// or collected — in result order. `emit`'s time is the root's in the
    /// [`OpTrace`] of a `traced` run.
    pub fn try_run_rows(
        self,
        plan: &PhysicalPlan,
        traced: bool,
        emit: &mut dyn FnMut(RootRow<'_>),
    ) -> (Result<Option<OpTrace>, ExecError>, ExecStats) {
        let (run, stats) = self.run_root(plan, traced, |ex| ex.exec_root(plan, emit));
        (run.map(|((), trace)| trace), stats)
    }

    /// The run of `plan`, `root` doing the work, traced when asked.
    fn run_root<R>(
        mut self,
        plan: &PhysicalPlan,
        traced: bool,
        root: impl FnOnce(&mut Self) -> Result<R, ExecError>,
    ) -> (Result<(R, Option<OpTrace>), ExecError>, ExecStats) {
        if traced {
            trace_slots(self.env, plan, &mut self.trace);
        }
        let result = self.checkpoint().and_then(|()| root(&mut self));
        let mut slots = std::mem::take(&mut self.trace).into_iter();
        let trace = traced.then(|| fold_trace(plan, &mut slots).ok_or_else(trace_lost));
        let run = result.and_then(|r| Ok((r, trace.transpose()?)));
        (run, self.stats())
    }

    /// The root with the collecting consumer: every row owned, as an
    /// [`ExecResult`]. The root emits cells exactly when it is a projection.
    fn collect_root(&mut self, plan: &PhysicalPlan) -> Result<ExecResult, ExecError> {
        let n_vars = self.n_vars();
        let (mut rows, mut tuples) = (Vec::new(), Vec::new());
        self.exec_root(plan, &mut |row| match row {
            RootRow::Cells(cells) => rows.push(cells.iter().map(|v| Value::clone(v)).collect()),
            RootRow::Bound(cols, row) => tuples.push(Tuple::from_row(n_vars, cols, row)),
        })?;
        Ok(if matches!(plan.op, PhysicalOp::AlgProject { .. }) {
            ExecResult::Rows(rows)
        } else {
            ExecResult::Tuples(tuples)
        })
    }

    /// The root pipeline: its tail evaluates each row — the projection's
    /// cells, or the root's bindings — and hands it to `emit`.
    fn exec_root(
        &mut self,
        plan: &PhysicalPlan,
        emit: &mut dyn FnMut(RootRow<'_>),
    ) -> Result<(), ExecError> {
        let store = self.store;
        // Projection is only legal at the root: it is the tail of the
        // topmost pipeline, not a stage.
        let (mut p, items) = match &plan.op {
            PhysicalOp::AlgProject { items } => {
                let p = self.open(child(plan, 0)?, 1)?;
                let items = items.iter().map(|item| Slot::resolve(item, &p.cols));
                let items = items.collect::<Result<Vec<_>, _>>()?;
                (p, Some(items))
            }
            _ => (self.open(plan, 0)?, None),
        };
        let cols = std::mem::take(&mut p.cols);
        let mut root_rows = 0;
        let mut tail = |batch: Batch, counts: &mut OpCounts| {
            root_rows += batch.len();
            let Some(items) = &items else {
                batch
                    .rows()
                    .for_each(|row| emit(RootRow::Bound(&cols, row)));
                return Ok(());
            };
            counts.tuples += batch.len() as u64;
            // A block of rows' cells side by side, filled an item — a
            // store column — at a time; a block's cells stay in cache
            // between being written and being emitted.
            const BLOCK_ROWS: usize = 64;
            static NULL: Value = Value::Null;
            let k = items.len();
            let mut cells = vec![Cow::Borrowed(&NULL); BLOCK_ROWS.min(batch.len()) * k];
            for block in batch.data.chunks(BLOCK_ROWS * batch.width) {
                let rows = block.chunks_exact(batch.width);
                for (i, item) in items.iter().enumerate() {
                    let mut at = i;
                    let fill = |v| {
                        cells[at] = v;
                        at += k;
                    };
                    item.eval_each(store, rows.clone(), fill)
                        .map_err(ExecError::Corrupt)?;
                }
                for r in 0..rows.len() {
                    emit(RootRow::Cells(&cells[r * k..(r + 1) * k]));
                }
            }
            Ok(())
        };
        self.pump(p, 0, &mut tail)?;
        if items.is_some() {
            self.charge(0, None, root_rows);
        }
        self.root_rows = root_rows as u64;
        Ok(())
    }

    /// Opens the pipeline that produces `plan`'s output (`id` is the
    /// node's preorder index): resolves every operand to a column, walks
    /// down through the streaming operators to their source, and runs
    /// whatever must finish first — hash-join builds, and every operator
    /// that needs its whole input — children in plan order, so pages are
    /// touched in the order the plan reads them.
    fn open(&mut self, plan: &PhysicalPlan, id: usize) -> Result<Pipeline<'a>, ExecError> {
        let env = self.env;
        match &plan.op {
            PhysicalOp::FileScan { coll, var } => {
                return Ok(Pipeline {
                    source: Source::Scan { coll: *coll, id },
                    stages: Vec::new(),
                    cols: vec![*var],
                    reserved: 0,
                })
            }
            PhysicalOp::Filter { pred } => {
                let mut p = self.open(child(plan, 0)?, id + 1)?;
                let pred = Pred::resolve(env, *pred, &p.cols)?;
                p.stages.push((id, Stage::Filter(pred)));
                return Ok(p);
            }
            PhysicalOp::AlgUnnest { out } => {
                let VarOrigin::Unnest { src, field } = env.scopes.var(*out).origin else {
                    return Err(malformed("AlgUnnest output must have Unnest origin"));
                };
                let mut p = self.open(child(plan, 0)?, id + 1)?;
                let src = col_of(&p.cols, src)?;
                let out = bind(&mut p.cols, *out);
                p.stages.push((id, Stage::Unnest { src, field, out }));
                return Ok(p);
            }
            PhysicalOp::HybridHashJoin { pred } => return self.open_hash_join(plan, id, *pred),
            PhysicalOp::AlgProject { .. } => {
                return Err(malformed("projection only supported at the plan root"))
            }
            _ => {}
        }
        let mut inputs = Vec::with_capacity(plan.children.len());
        let mut kid = id + 1;
        for c in &plan.children {
            inputs.push(self.drain(c, kid)?);
            kid += nodes(c);
        }
        let mut inputs = inputs.into_iter();
        let mut input = || {
            let missing = || malformed(format!("{} is missing an input", plan.op.name()));
            inputs.next().ok_or_else(missing)
        };
        let since = self.mark();
        let out = match &plan.op {
            PhysicalOp::IndexScan { index, var, pred } => {
                (self.index_scan(*index, *pred)?, vec![*var])
            }
            PhysicalOp::PointerJoin { pred } => self.pointer_join(*pred, input()?)?,
            PhysicalOp::Assembly { targets, window } => {
                let mut bound = input()?;
                for &v in targets {
                    bound = self.assemble(bound, v, *window)?;
                }
                bound
            }
            PhysicalOp::WarmAssembly { target } => self.warm_assemble(input()?, *target)?,
            PhysicalOp::Sort { key } => self.sort(input()?, key)?,
            PhysicalOp::MergeJoin { pred } => self.merge_join(*pred, input()?, input()?)?,
            PhysicalOp::HashSetOp { kind } => self.set_op(*kind, input()?, input()?)?,
            PhysicalOp::FileScan { .. }
            | PhysicalOp::Filter { .. }
            | PhysicalOp::AlgUnnest { .. }
            | PhysicalOp::HybridHashJoin { .. }
            | PhysicalOp::AlgProject { .. } => unreachable!("streaming operators returned above"),
        };
        self.charge(id, since, out.0.len());
        Ok(Pipeline::rows(out))
    }

    /// Runs `plan` to completion into one batch.
    fn drain(&mut self, plan: &PhysicalPlan, id: usize) -> Result<Bound, ExecError> {
        let p = self.open(plan, id)?;
        self.collect(p, id)
    }

    /// Runs an opened pipeline (whose top node is `id`) to completion
    /// into one batch.
    fn collect(&mut self, mut p: Pipeline<'a>, id: usize) -> Result<Bound, ExecError> {
        let cols = std::mem::take(&mut p.cols);
        if p.stages.is_empty() {
            if let Source::Rows(batch) = p.source {
                return Ok((batch, cols));
            }
        }
        let mut out = Batch::new(cols.len());
        self.pump(p, id, &mut |batch, _| {
            out.data.extend_from_slice(&batch.data);
            Ok(())
        })?;
        Ok((out, cols))
    }

    /// Drives a pipeline: every source batch goes through the stages and
    /// on to `tail` — the pipeline's last step, charged to plan node
    /// `tail_id` — in source order, with the run limits checked at each
    /// batch boundary.
    fn pump(
        &mut self,
        p: Pipeline<'a>,
        tail_id: usize,
        tail: &mut dyn FnMut(Batch, &mut OpCounts) -> Result<(), ExecError>,
    ) -> Result<(), ExecError> {
        let Pipeline {
            source,
            stages,
            reserved,
            ..
        } = p;
        self.produce(source, &mut |ex, mut batch| {
            for (id, stage) in &stages {
                let since = ex.mark();
                batch = stage.apply(ex.store, batch, &mut ex.counts)?;
                ex.charge(*id, since, batch.len());
            }
            let since = ex.mark();
            tail(batch, &mut ex.counts)?;
            ex.charge(tail_id, since, 0);
            ex.checkpoint()
        })?;
        if reserved > 0 {
            self.grant.release(reserved);
        }
        Ok(())
    }

    /// Hands the source's rows to `each` in batches of at most
    /// [`BATCH_ROWS`]. A scan touches its pages as it goes, one pool
    /// access per run of members sharing a page.
    fn produce(
        &mut self,
        source: Source,
        each: &mut dyn FnMut(&mut Self, Batch) -> Result<(), ExecError>,
    ) -> Result<(), ExecError> {
        match source {
            Source::Scan { coll, id } => {
                let store = self.store;
                for chunk in store.members(coll).chunks(BATCH_ROWS) {
                    let since = self.mark();
                    self.touch_objects(chunk)?;
                    self.counts.tuples += chunk.len() as u64;
                    self.leaf_rows += chunk.len() as u64;
                    let batch = Batch {
                        width: 1,
                        data: chunk.to_vec(),
                    };
                    self.charge(id, since, chunk.len());
                    each(self, batch)?;
                }
                Ok(())
            }
            Source::Rows(batch) if batch.len() <= BATCH_ROWS => each(self, batch),
            Source::Rows(batch) => {
                let width = batch.width;
                batch.data.chunks(BATCH_ROWS * width).try_for_each(|rows| {
                    let data = rows.to_vec();
                    each(self, Batch { width, data })
                })
            }
        }
    }

    fn n_vars(&self) -> usize {
        self.env.scopes.len()
    }

    /// Touches one page `n` times in a row. Surfaces injected storage
    /// faults.
    fn touch_run(&mut self, page: PageId, n: u64) -> Result<(), ExecError> {
        self.io.try_touch_run(page, n).map_err(ExecError::Fault)?;
        Ok(())
    }

    fn touch(&mut self, page: PageId) -> Result<(), ExecError> {
        self.touch_run(page, 1)
    }

    /// Touches the page of every object in turn, as one run per stretch of
    /// objects sharing a page.
    fn touch_objects(&mut self, mut oids: &[Oid]) -> Result<(), ExecError> {
        while !oids.is_empty() {
            let (page, run) = self.store.try_page_run(oids).map_err(ExecError::Corrupt)?;
            self.touch_run(page, run as u64)?;
            oids = &oids[run..];
        }
        Ok(())
    }

    /// Touches a batch in elevator order. A fault aborts before any page
    /// of the batch is charged.
    fn touch_elevator(&mut self, pages: &[PageId]) -> Result<(), ExecError> {
        self.checkpoint()?;
        self.io
            .try_touch_elevator(pages)
            .map_err(ExecError::Fault)?;
        Ok(())
    }

    /// Bytes one bound variable slot costs in our simulated accounting.
    const SLOT_BYTES: u64 = 16;
    /// Fixed overhead charged per tuple held in a governed structure.
    const TUPLE_OVERHEAD: u64 = 32;
    /// Extra bytes charged per hash-table entry over the tuple itself.
    const HASH_ENTRY_OVERHEAD: u64 = 48;

    /// Approximate resident bytes of one materialized tuple. Simulated
    /// accounting prices a row at the query's full variable count, not at
    /// the batch's width, so grants and spill pages do not depend on how
    /// the engine lays rows out.
    fn tuple_bytes(&self) -> u64 {
        self.n_vars() as u64 * Self::SLOT_BYTES + Self::TUPLE_OVERHEAD
    }

    /// Approximate bytes one build-side row occupies in a hash table.
    fn hash_entry_bytes(&self) -> u64 {
        self.tuple_bytes() + Self::HASH_ENTRY_OVERHEAD
    }

    /// Pages a run of `rows` tuples occupies when spilled.
    fn spill_pages_for(&self, rows: usize) -> u64 {
        (rows as u64 * self.tuple_bytes())
            .div_ceil(u64::from(PAGE_BYTES))
            .max(1)
    }

    /// Charges a spill-partition write: sequential disk time plus the
    /// governor's byte ledger.
    fn charge_spill_write(&mut self, pages: u64) {
        self.io.disk.spill_write(pages);
        self.grant.note_spill(pages * u64::from(PAGE_BYTES), 0);
    }

    /// Charges a spill-partition re-read; pairs one-for-one with
    /// [`Executor::charge_spill_write`] so written == read at quiesce.
    fn charge_spill_read(&mut self, pages: u64) {
        self.io.disk.spill_read(pages);
        self.grant.note_spill(0, pages * u64::from(PAGE_BYTES));
    }

    /// The instant an operator's own work starts, when tracing.
    fn mark(&self) -> Option<Mark> {
        (!self.trace.is_empty()).then(|| Mark {
            at: Instant::now(),
            buffer: self.io.buffer_stats(),
            disk: self.io.disk_stats(),
        })
    }

    /// Charges `rows` more output rows, and the time and I/O since
    /// `since`, to plan node `id`; a no-op outside traced runs.
    fn charge(&mut self, id: usize, since: Option<Mark>, rows: usize) {
        if self.trace.is_empty() {
            return;
        }
        let now = self.mark();
        let slot = &mut self.trace[id];
        slot.actual_rows += rows as u64;
        if let (Some(m), Some(now)) = (since, now) {
            slot.elapsed_ns += (now.at - m.at).as_nanos() as u64;
            slot.buffer_hits += now.buffer.0 - m.buffer.0;
            slot.buffer_misses += now.buffer.1 - m.buffer.1;
            slot.sim_io_s += now.disk.total_s - m.disk.total_s;
            slot.spill_pages += now.disk.spill_pages() - m.disk.spill_pages();
        }
    }
}

/// One-shot convenience: fresh executor, run, return result + stats.
/// Panics on failure — use [`try_execute`] when faults, deadlines, or
/// cancellation are in play.
pub fn execute(store: &Store, env: &QueryEnv, plan: &PhysicalPlan) -> (ExecResult, ExecStats) {
    try_execute(store, env, plan, RunLimits::default())
        .unwrap_or_else(|e| panic!("execution failed: {e}"))
}

/// One-shot fallible execution under cooperative [`RunLimits`]: fresh
/// executor, run, return result + stats or the [`ExecError`] that stopped
/// the run.
pub fn try_execute(
    store: &Store,
    env: &QueryEnv,
    plan: &PhysicalPlan,
    limits: RunLimits,
) -> Result<(ExecResult, ExecStats), ExecError> {
    let (run, stats) = Executor::new(store, env, limits).try_run(plan, false);
    run.map(|(result, _)| (result, stats))
}

/// One-shot `EXPLAIN ANALYZE`: fresh executor, traced run, return result,
/// stats, and the per-operator trace tree. Panics on failure — use
/// [`try_execute_traced`] when faults or limits are in play.
pub fn execute_traced(
    store: &Store,
    env: &QueryEnv,
    plan: &PhysicalPlan,
) -> (ExecResult, ExecStats, OpTrace) {
    try_execute_traced(store, env, plan, RunLimits::default())
        .unwrap_or_else(|e| panic!("execution failed: {e}"))
}

/// Fallible [`execute_traced`] under cooperative [`RunLimits`].
pub fn try_execute_traced(
    store: &Store,
    env: &QueryEnv,
    plan: &PhysicalPlan,
    limits: RunLimits,
) -> Result<(ExecResult, ExecStats, OpTrace), ExecError> {
    let (run, stats) = Executor::new(store, env, limits).try_run(plan, true);
    run.and_then(|(result, trace)| Ok((result, stats, trace.ok_or_else(trace_lost)?)))
}

#[cfg(test)]
mod tests;
