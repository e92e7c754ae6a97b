//! The operators that do not stream: index scan, the hash join's build
//! and its spilling fallbacks, and everything that needs its whole input
//! (pointer join, assembly, sort, merge join, set operations).

use super::pipeline::{bind, child, malformed, nodes, reserves, Bound, JoinSpec, Pipeline, Stage};
use super::{ExecError, Executor};
use crate::batch::{Batch, JoinTable, BATCH_ROWS};
use crate::eval::{col_of, Slot};
use oodb_algebra::props::SortSpec;
use oodb_algebra::{Operand, PhysicalPlan, PredId, SetOpKind, VarId, VarOrigin};
use oodb_object::value::CmpLike;
use oodb_object::{IndexId, Oid, Value};
use oodb_storage::PageId;
use std::collections::HashSet;

impl<'a> Executor<'a> {
    pub(super) fn index_scan(&mut self, index: IndexId, pred: PredId) -> Result<Batch, ExecError> {
        let idx = self.store.index(index);
        let matches: Vec<Oid> = if self.env.preds.pred(pred).terms.is_empty() {
            // Full ordered sweep: every leaf, entries in key order;
            // fetch order must follow the keys, not the OIDs.
            idx.all_ordered()
        } else {
            let (op, key) = self.index_term(pred)?;
            // Point or range lookup: fetch in OID (storage) order,
            // which is elevator-friendly.
            let mut m = idx.lookup_cmp(op, key);
            m.sort_unstable();
            m
        };
        for p in idx.lookup_pages(matches.len() as u64) {
            self.touch(p)?;
        }
        self.touch_objects(&matches)?;
        self.counts.tuples += matches.len() as u64;
        self.leaf_rows += matches.len() as u64;
        Ok(Batch {
            width: 1,
            data: matches,
        })
    }

    /// Extracts the comparison operator and constant key of an index-scan
    /// predicate, normalizing `const <op> attr` to `attr <flipped-op>
    /// const`.
    fn index_term(&self, pred: PredId) -> Result<(CmpLike, &'a Value), ExecError> {
        for t in &self.env.preds.pred(pred).terms {
            if let Operand::Const(v) = &t.right {
                return Ok((t.op.as_cmp_like(), v));
            }
            if let Operand::Const(v) = &t.left {
                return Ok((t.op.flipped().as_cmp_like(), v));
            }
        }
        Err(malformed("index-scan predicate has no constant"))
    }

    /// Maximum partition-recursion depth for a spilling hash join;
    /// beyond it (skewed keys that never split) the join falls back to
    /// grant-bounded chunking, which always terminates.
    pub(super) const MAX_SPILL_DEPTH: u32 = 4;
    /// Partition fan-out per spill level.
    pub(super) const SPILL_FANOUT: usize = 8;

    /// The partition a join key spills to at `depth`: a depth-salted rehash.
    pub(super) fn spill_partition(key: u64, depth: u32) -> usize {
        let salt = oodb_fault::splitmix64(0xA55E_B1E0 ^ u64::from(depth));
        (oodb_fault::splitmix64(key ^ salt) % Self::SPILL_FANOUT as u64) as usize
    }

    /// The true hybrid. The build (left) input is drained first. When the
    /// grant covers its hash table, the join becomes a probe stage of the
    /// right input's pipeline and the probe side is never materialised;
    /// when it does not, both sides are partitioned by a depth-salted
    /// rehash of the join key, spilled to simulated disk at sequential
    /// rates, and joined pair by pair — producing exactly the rows the
    /// in-memory join would.
    pub(super) fn open_hash_join(
        &mut self,
        plan: &PhysicalPlan,
        id: usize,
        pred: PredId,
    ) -> Result<Pipeline<'a>, ExecError> {
        let (left, right) = (child(plan, 0)?, child(plan, 1)?);
        let right_id = id + 1 + nodes(left);
        let (build, build_cols) = self.drain(left, id + 1)?;
        // The table's bytes stay reserved while the probe side streams, so
        // a probe side with reservations of its own runs to completion
        // first: one reservation at a time, as the grant is budgeted.
        let mut probe = if reserves(right) {
            Pipeline::rows(self.drain(right, right_id)?)
        } else {
            self.open(right, right_id)?
        };
        let since = self.mark();
        let (spec, cols) =
            JoinSpec::resolve(self.env, pred, &build_cols, &probe.cols, "hash join")?;
        let need = (build.len() as u64 * self.hash_entry_bytes()).max(1);
        if self.grant.try_reserve(need) {
            let table = self.build_table(&spec, &build.data, need)?;
            self.charge(id, since, 0);
            probe.stages.push((id, Stage::Probe { spec, table, build }));
            probe.cols = cols;
            probe.reserved += need;
            return Ok(probe);
        }
        let (right, _) = self.collect(probe, right_id)?;
        let since = self.mark();
        let out = self.join_overflow(&spec, build, right, 0)?;
        self.charge(id, since, out.len());
        Ok(Pipeline::rows((out, cols)))
    }

    /// The table over the join key of every build row (of
    /// `spec.build_width` bindings), `need` bytes reserved for it:
    /// addressed by oid where the keys allow, hashed otherwise.
    fn build_table(
        &mut self,
        spec: &JoinSpec<'a>,
        build: &[Oid],
        need: u64,
    ) -> Result<JoinTable, ExecError> {
        let rows = build.chunks_exact(spec.build_width);
        let oids = spec
            .build_oids
            .map(|col| rows.clone().map(move |row| row[col]));
        #[cfg(test)]
        let oids = oids.filter(|_| !self.hashed_only);
        if let Some(table) = oids.and_then(|oids| JoinTable::addressed(oids, need)) {
            self.checkpoint()?;
            self.counts.hash_ops += rows.len() as u64;
            return Ok(table);
        }
        let mut keys = Vec::with_capacity(rows.len());
        for rows in build.chunks(BATCH_ROWS * spec.build_width) {
            self.checkpoint()?;
            let rows = rows.chunks_exact(spec.build_width);
            self.counts.hash_ops += rows.len() as u64;
            spec.build_key
                .hash_keys(self.store, rows, &mut keys)
                .map_err(ExecError::Corrupt)?;
        }
        Ok(JoinTable::build(&keys))
    }

    /// Classic build + probe over the whole build side; callers have
    /// already reserved `need` bytes for the table.
    pub(super) fn join_in_memory(
        &mut self,
        spec: &JoinSpec<'a>,
        left: &[Oid],
        right: &[Oid],
        need: u64,
    ) -> Result<Batch, ExecError> {
        let table = self.build_table(spec, left, need)?;
        let mut out = Batch::new(spec.width());
        for rows in right.chunks(BATCH_ROWS * spec.probe_width) {
            self.checkpoint()?;
            spec.probe(&table, left, self.store, rows, &mut out, &mut self.counts)?;
        }
        Ok(out)
    }

    /// Joins one partition pair: in memory when the grant covers the
    /// build side, otherwise by splitting again.
    fn join_governed(
        &mut self,
        spec: &JoinSpec<'a>,
        left: Batch,
        right: Batch,
        depth: u32,
    ) -> Result<Batch, ExecError> {
        let need = (left.len() as u64 * self.hash_entry_bytes()).max(1);
        if self.grant.try_reserve(need) {
            let out = self.join_in_memory(spec, &left.data, &right.data, need);
            self.grant.release(need);
            return out;
        }
        self.join_overflow(spec, left, right, depth)
    }

    /// The grant refused the build side: split both inputs into FANOUT
    /// partition pairs. A key's partition depends only on (key, depth),
    /// so matching rows land together and partitions join independently.
    fn join_overflow(
        &mut self,
        spec: &JoinSpec<'a>,
        left: Batch,
        right: Batch,
        depth: u32,
    ) -> Result<Batch, ExecError> {
        if depth >= Self::MAX_SPILL_DEPTH {
            return self.join_chunked(spec, &left, &right);
        }
        let mut split = |side: &Batch, key: &Slot<'a>| -> Result<Vec<Batch>, ExecError> {
            let mut parts = vec![Batch::new(side.width); Self::SPILL_FANOUT];
            let mut keys = Vec::new();
            for rows in side.data.chunks(BATCH_ROWS * side.width) {
                self.checkpoint()?;
                let rows = rows.chunks_exact(side.width);
                self.counts.hash_ops += rows.len() as u64;
                keys.clear();
                key.hash_keys(self.store, rows.clone(), &mut keys)
                    .map_err(ExecError::Corrupt)?;
                // Keyless rows can never match — the in-memory build
                // skips them too.
                for (row, k) in rows.zip(&keys) {
                    if let Some(k) = k {
                        parts[Self::spill_partition(*k, depth)]
                            .data
                            .extend_from_slice(row);
                    }
                }
            }
            Ok(parts)
        };
        let lparts = split(&left, &spec.build_key)?;
        let rparts = split(&right, &spec.probe_key)?;
        drop((left, right));
        // Write every productive partition out, then read each back and
        // join it. One write pairs with one read, so spill bytes
        // reconcile at quiesce; partitions that cannot produce rows
        // (either side empty) are dropped unspilled.
        let parts: Vec<(Batch, Batch)> = lparts.into_iter().zip(rparts).collect();
        let mut pages_of = Vec::with_capacity(parts.len());
        for (lp, rp) in &parts {
            if lp.data.is_empty() || rp.data.is_empty() {
                pages_of.push(0);
                continue;
            }
            let pages = self.spill_pages_for(lp.len() + rp.len());
            self.charge_spill_write(pages);
            self.spilled_partitions += 1;
            pages_of.push(pages);
        }
        let mut out = Batch::new(spec.width());
        for ((lp, rp), pages) in parts.into_iter().zip(pages_of) {
            if pages == 0 {
                continue;
            }
            self.checkpoint()?;
            self.charge_spill_read(pages);
            let joined = self.join_governed(spec, lp, rp, depth + 1)?;
            out.data.extend_from_slice(&joined.data);
        }
        Ok(out)
    }

    /// Last-resort join when partitioning cannot split the keys: build
    /// over the largest left chunk the grant admits (at least one row)
    /// and probe the whole right side per chunk, charging each extra
    /// probe pass as a sequential spool out and back. Fails typed only
    /// when even a single-row chunk does not fit.
    fn join_chunked(
        &mut self,
        spec: &JoinSpec<'a>,
        left: &Batch,
        right: &Batch,
    ) -> Result<Batch, ExecError> {
        let entry = self.hash_entry_bytes();
        let probe_pages = self.spill_pages_for(right.len());
        let mut out = Batch::new(spec.width());
        let (mut i, mut pass) = (0usize, 0u64);
        while i < left.len() {
            self.checkpoint()?;
            let (chunk, need) = self.reserve_chunk(left.len() - i, entry)?;
            if pass > 0 {
                self.charge_spill_write(probe_pages);
                self.charge_spill_read(probe_pages);
            }
            let rows = &left.data[i * left.width..(i + chunk) * left.width];
            let joined = self.join_in_memory(spec, rows, &right.data, need);
            self.grant.release(need);
            out.data.extend_from_slice(&joined?.data);
            i += chunk;
            pass += 1;
        }
        Ok(out)
    }

    fn exhausted(&self, requested: u64) -> ExecError {
        ExecError::MemoryExhausted {
            requested,
            budget: self.grant.budget(),
        }
    }

    /// Reserves `entry_bytes` for each of as many of `rows` rows as the
    /// grant admits, halving until it does; fails typed when even one row
    /// does not fit. Returns the row count and the bytes now held.
    fn reserve_chunk(&mut self, rows: usize, entry_bytes: u64) -> Result<(usize, u64), ExecError> {
        let mut chunk = rows;
        loop {
            let need = (chunk as u64 * entry_bytes).max(1);
            if self.grant.try_reserve(need) {
                return Ok((chunk, need));
            }
            if chunk <= 1 {
                return Err(self.exhausted(need));
            }
            chunk /= 2;
        }
    }

    /// Follows the reference `slot` names on each of `rows`: one
    /// dereference a row, to the objects and the pages they live on.
    fn deref<'r>(
        &mut self,
        slot: &Slot<'a>,
        rows: impl ExactSizeIterator<Item = &'r [Oid]>,
        what: &str,
    ) -> Result<(Vec<Oid>, Vec<PageId>), ExecError> {
        self.counts.derefs += rows.len() as u64;
        let mut refs = Vec::with_capacity(rows.len());
        slot.eval_each(self.store, rows, |value| refs.push(value.as_ref_oid()))
            .map_err(ExecError::Corrupt)?;
        let refs: Vec<Oid> = (refs.into_iter().collect::<Option<_>>())
            .ok_or_else(|| malformed(format!("{what} must hold a reference")))?;
        let pages = refs.iter().map(|&oid| self.store.try_page_of(oid));
        let pages = pages
            .collect::<Result<_, _>>()
            .map_err(ExecError::Corrupt)?;
        Ok((refs, pages))
    }

    /// How rows of layout `cols` refer to the `Mat` variable `target`. A
    /// plan may assemble a component the input already binds (an extent
    /// scan of the component's collection); the binding IS the reference,
    /// so the source is read only when the target is still open.
    fn mat_ref(&self, cols: &[VarId], target: VarId, what: &str) -> Result<Slot<'a>, ExecError> {
        let VarOrigin::Mat { src, field } = self.env.scopes.var(target).origin else {
            return Err(malformed(format!("{what} target must have Mat origin")));
        };
        Ok(match (cols.iter().position(|&c| c == target), field) {
            (Some(col), _) => Slot::Oid(col),
            (None, None) => Slot::Oid(col_of(cols, src)?),
            (None, Some(field)) => Slot::Field {
                col: col_of(cols, src)?,
                field,
            },
        })
    }

    pub(super) fn pointer_join(
        &mut self,
        pred: PredId,
        (input, mut cols): Bound,
    ) -> Result<Bound, ExecError> {
        let term = self.env.preds.pred(pred).terms.first();
        let term = term.ok_or_else(|| malformed("pointer join needs a term"))?;
        let (ref_on_left, target) = term
            .as_ref_eq()
            .ok_or_else(|| malformed("pointer join needs a reference equality"))?;
        let ref_op = if ref_on_left { &term.left } else { &term.right };
        let slot = Slot::resolve(ref_op, &cols)?;
        let target = bind(&mut cols, target);
        // Partition: gather all references, fetch their pages in one
        // elevator sweep, then bind.
        let (refs, pages) = self.deref(&slot, input.rows(), "reference operand")?;
        self.touch_elevator(&pages)?;
        let mut out = Batch::new(cols.len());
        for (row, oid) in input.rows().zip(refs) {
            out.push_bound(row, target, oid);
        }
        Ok((out, cols))
    }

    pub(super) fn assemble(
        &mut self,
        (input, mut cols): Bound,
        target: VarId,
        window: u32,
    ) -> Result<Bound, ExecError> {
        let slot = self.mat_ref(&cols, target, "assembly")?;
        let target = bind(&mut cols, target);
        // An open reference costs bookkeeping bytes while its window is
        // in flight; under memory pressure the window shrinks, trading
        // the elevator's seek discount for staying inside the grant. A
        // window of one needs no reservation (that is the floor).
        const OPEN_REF_BYTES: u64 = 48;
        let mut window = window.max(1) as usize;
        let mut reserved = 0u64;
        while window > 1 {
            let need = window as u64 * OPEN_REF_BYTES;
            if self.grant.try_reserve(need) {
                reserved = need;
                break;
            }
            window /= 2;
        }
        let mut out = Batch::new(cols.len());
        for rows in input.data.chunks(window * input.width) {
            // Cancellation/deadline reach every window boundary.
            self.checkpoint()?;
            // Open a window of references, fetch its pages in one elevator
            // sweep, resolve, slide on.
            let (refs, pages) = self.deref(&slot, rows.chunks_exact(input.width), "Mat field")?;
            if window == 1 {
                self.touch(pages[0])?;
            } else {
                self.touch_elevator(&pages)?;
            }
            for (row, oid) in rows.chunks_exact(input.width).zip(refs) {
                out.push_bound(row, target, oid);
            }
        }
        self.grant.release(reserved);
        Ok((out, cols))
    }

    /// Warm-start assembly: sweep the component's whole collection
    /// sequentially into the buffer pool, then resolve every reference as
    /// a buffer hit.
    pub(super) fn warm_assemble(
        &mut self,
        (input, mut cols): Bound,
        target: VarId,
    ) -> Result<Bound, ExecError> {
        let slot = self.mat_ref(&cols, target, "warm assembly")?;
        let domain = self
            .env
            .var_domain(target)
            .ok_or_else(|| malformed("warm assembly needs a known domain"))?;
        let target = bind(&mut cols, target);
        for page in self.store.scan_pages(domain).map_err(ExecError::Corrupt)? {
            self.touch(page)?;
        }
        let mut out = Batch::new(cols.len());
        for rows in input.data.chunks(BATCH_ROWS * input.width) {
            self.checkpoint()?;
            let rows = rows.chunks_exact(input.width);
            let (refs, pages) = self.deref(&slot, rows.clone(), "Mat field")?;
            for ((row, oid), page) in rows.zip(refs).zip(pages) {
                // The referenced page is (almost certainly) resident now;
                // touching it records the buffer hit honestly.
                self.touch(page)?;
                out.push_bound(row, target, oid);
            }
        }
        Ok((out, cols))
    }

    pub(super) fn sort(
        &mut self,
        (input, cols): Bound,
        key: &SortSpec,
    ) -> Result<Bound, ExecError> {
        self.counts.hash_ops += input.len() as u64; // sort work proxy
        let slot = Slot::Field {
            col: col_of(&cols, key.var)?,
            field: key.field,
        };
        // Read the keys up front so corruption surfaces as an error (a
        // comparator cannot propagate one). The order is total — NULLs
        // and mixed types included — and the one merge join walks.
        let keys = slot
            .values(self.store, input.rows())
            .map_err(ExecError::Corrupt)?;
        let mut keyed: Vec<_> = keys.into_iter().zip(input.rows()).collect();
        keyed.sort_by(|a, b| a.0.total_cmp_val(&b.0));
        let mut out = Batch::new(input.width);
        out.data.reserve(input.data.len());
        for (_, row) in keyed {
            out.data.extend_from_slice(row);
        }
        Ok((out, cols))
    }

    /// Merge join over key-sorted inputs: advance two cursors, pair up
    /// equal-key groups, verify residual conjuncts.
    pub(super) fn merge_join(
        &mut self,
        pred: PredId,
        (left, left_cols): Bound,
        (right, right_cols): Bound,
    ) -> Result<Bound, ExecError> {
        let store = self.store;
        let (spec, cols) =
            JoinSpec::resolve(self.env, pred, &left_cols, &right_cols, "merge join")?;
        // Extract both key columns up front (totalizes corruption).
        let keys = |side: &Batch, key: &Slot<'a>| {
            key.values(store, side.rows()).map_err(ExecError::Corrupt)
        };
        let (lkeys, rkeys) = (
            keys(&left, &spec.build_key)?,
            keys(&right, &spec.probe_key)?,
        );
        let (lrows, rrows): (Vec<_>, Vec<_>) = (left.rows().collect(), right.rows().collect());
        let mut out = Batch::new(spec.width());
        let (mut i, mut j) = (0usize, 0usize);
        while i < lrows.len() && j < rrows.len() {
            self.counts.tuples += 1;
            match lkeys[i].total_cmp_val(&rkeys[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    // Gather both equal-key runs and cross them.
                    let i_end = i + lkeys[i..].iter().take_while(|k| **k == lkeys[i]).count();
                    let j_end = j + rkeys[j..].iter().take_while(|k| **k == rkeys[j]).count();
                    for l in &lrows[i..i_end] {
                        for r in &rrows[j..j_end] {
                            spec.emit(store, l, r, 0, &mut out, &mut self.counts)?;
                        }
                    }
                    (i, j) = (i_end, j_end);
                }
            }
        }
        Ok((out, cols))
    }

    /// Extra bytes charged per key held in a set-op hash set.
    const SET_ENTRY_OVERHEAD: u64 = 48;

    /// Approximate bytes one row key occupies in a set-op table.
    fn set_entry_bytes(&self) -> u64 {
        self.tuple_bytes() + Self::SET_ENTRY_OVERHEAD
    }

    /// Hash set ops, governed: when the grant covers the key sets, the
    /// classic hashed variant runs; when refused, a staged variant
    /// produces the identical output in bounded memory. Rows are compared
    /// — and emitted — on the variables both inputs bind, which for the
    /// plans the optimizer emits is all of them.
    pub(super) fn set_op(
        &mut self,
        kind: SetOpKind,
        (left, left_cols): Bound,
        (right, right_cols): Bound,
    ) -> Result<Bound, ExecError> {
        let cols: Vec<VarId> = left_cols
            .iter()
            .copied()
            .filter(|v| right_cols.contains(v))
            .collect();
        if cols.is_empty() {
            return Err(malformed("set operation inputs bind no common variable"));
        }
        let onto = |side: Batch, from: &[VarId]| {
            if from == cols {
                return Ok(side);
            }
            let pick = cols.iter().map(|v| col_of(from, *v));
            let pick = pick.collect::<Result<Vec<usize>, ExecError>>()?;
            Ok(Batch {
                width: cols.len(),
                data: side
                    .rows()
                    .flat_map(|row| pick.iter().map(|&c| row[c]))
                    .collect(),
            })
        };
        let (left, right) = (onto(left, &left_cols)?, onto(right, &right_cols)?);
        let need = ((left.len() + right.len()) as u64 * self.set_entry_bytes()).max(1);
        let out = if self.grant.try_reserve(need) {
            let out = self.set_op_hashed(kind, &left, &right);
            self.grant.release(need);
            out?
        } else {
            self.set_op_staged(kind, &left, &right)?
        };
        Ok((out, cols))
    }

    fn set_op_hashed(
        &mut self,
        kind: SetOpKind,
        left: &Batch,
        right: &Batch,
    ) -> Result<Batch, ExecError> {
        // One hash operation per input row, whichever set it lands in.
        self.counts.hash_ops += (left.len() + right.len()) as u64;
        let mut right_keys: HashSet<&[Oid]> = HashSet::new();
        if kind != SetOpKind::Union {
            right_keys.extend(right.rows());
        }
        self.checkpoint()?;
        let mut out = Batch::new(left.width);
        let mut seen: HashSet<&[Oid]> = HashSet::new();
        let rows = left.rows().chain(match kind {
            SetOpKind::Union => right.rows(),
            _ => right.data[..0].chunks_exact(right.width),
        });
        for row in rows {
            let keep = match kind {
                SetOpKind::Union => seen.insert(row),
                SetOpKind::Intersect => right_keys.contains(row),
                SetOpKind::Difference => !right_keys.contains(row),
            };
            if keep {
                out.data.extend_from_slice(row);
            }
        }
        Ok(out)
    }

    /// Memory-bounded set ops producing byte-identical output to
    /// [`Executor::set_op_hashed`]:
    ///
    /// - **Union** sorts an index array over the concatenated inputs by
    ///   key (stable tie-break on chain position), keeps each key's
    ///   first chain occurrence, and emits in chain order — one index
    ///   and one flag per row instead of a hash set of keys.
    /// - **Intersect/Difference** stage the right side through
    ///   grant-sized key chunks, marking matched left rows; left order
    ///   is preserved.
    fn set_op_staged(
        &mut self,
        kind: SetOpKind,
        left: &Batch,
        right: &Batch,
    ) -> Result<Batch, ExecError> {
        let mut out = Batch::new(left.width);
        if kind == SetOpKind::Union {
            let all: Vec<&[Oid]> = left.rows().chain(right.rows()).collect();
            // One u32 index + one flag byte per row.
            let need = (all.len() as u64 * 5).max(1);
            if !self.grant.try_reserve(need) {
                return Err(self.exhausted(need));
            }
            self.counts.hash_ops += all.len() as u64; // sort work proxy
            let mut idx: Vec<u32> = (0..all.len() as u32).collect();
            idx.sort_by(|&a, &b| all[a as usize].cmp(all[b as usize]).then(a.cmp(&b)));
            self.checkpoint()?;
            // Ascending tie-break means the first index of each run of
            // equal keys is the key's first chain occurrence.
            let mut keep = vec![false; all.len()];
            for run in idx.chunk_by(|&a, &b| all[a as usize] == all[b as usize]) {
                keep[run[0] as usize] = true;
            }
            self.grant.release(need);
            for (row, _) in all.iter().zip(keep).filter(|(_, k)| *k) {
                out.data.extend_from_slice(row);
            }
            return Ok(out);
        }
        let flags_need = (left.len() as u64).max(1);
        if !self.grant.try_reserve(flags_need) {
            return Err(self.exhausted(flags_need));
        }
        let mut matched = vec![false; left.len()];
        let entry = self.set_entry_bytes();
        let mut j = 0usize;
        while j < right.len() {
            self.checkpoint()?;
            let (chunk, need) = self.reserve_chunk(right.len() - j, entry)?;
            let staged = &right.data[j * right.width..(j + chunk) * right.width];
            let keys: HashSet<&[Oid]> = staged.chunks_exact(right.width).collect();
            self.counts.hash_ops += chunk as u64;
            for (row, m) in left.rows().zip(matched.iter_mut()) {
                if !*m {
                    self.counts.hash_ops += 1;
                    *m = keys.contains(row);
                }
            }
            self.grant.release(need);
            j += chunk;
        }
        self.grant.release(flags_need);
        let keep_on_match = kind == SetOpKind::Intersect;
        for (row, _) in left
            .rows()
            .zip(matched)
            .filter(|(_, m)| *m == keep_on_match)
        {
            out.data.extend_from_slice(row);
        }
        Ok(out)
    }
}
