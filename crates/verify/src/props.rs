//! The property checker: re-derives delivered physical properties
//! (presence in memory, sort order) bottom-up and checks every operator's
//! requirements, so enforcers sit where needed and never redundantly.

use crate::{checks, Cx};
use oodb_algebra::{Operand, PhysicalOp, PhysicalPlan, PredId, SortSpec, VarId, VarOrigin, VarSet};

/// What the property walk knows about an operator's delivered sort order.
/// `Unknown` keeps the checker conservative: order-dependent diagnostics
/// fire only on positively known mismatches.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum OrderInfo {
    /// The delivered order is positively known (possibly "none").
    Known(Option<SortSpec>),
    /// The walk cannot derive the order here; skip order checks above.
    Unknown,
}

/// Delivered physical properties re-derived during the walk.
#[derive(Clone, Copy)]
pub(crate) struct Derived {
    /// Variables bound in the output tuples (scope, not residency).
    pub(crate) produced: VarSet,
    /// Variables whose objects are present in memory.
    pub(crate) mem: VarSet,
    /// Delivered sort order knowledge.
    pub(crate) order: OrderInfo,
}

impl Derived {
    const EMPTY: Derived = Derived {
        produced: VarSet::EMPTY,
        mem: VarSet::EMPTY,
        order: OrderInfo::Known(None),
    };

    /// The same delivery with `v` also bound and in memory.
    fn with(self, v: VarId) -> Derived {
        Derived {
            produced: self.produced.insert(v),
            mem: self.mem.insert(v),
            order: self.order,
        }
    }
}

impl Cx<'_> {
    /// Re-derives delivered properties bottom-up, checking each operator's
    /// own requirements along the way.
    pub(crate) fn walk_props(&mut self, plan: &PhysicalPlan) -> Derived {
        let op = plan.op.name();
        let kids = self.walk_kids(&plan.children, Self::walk_props);
        let kid = |i: usize| kids.get(i).copied().unwrap_or(Derived::EMPTY);
        match &plan.op {
            PhysicalOp::FileScan { var, .. } => Derived {
                produced: VarSet::single(*var),
                mem: VarSet::single(*var),
                order: OrderInfo::Known(None),
            },
            PhysicalOp::IndexScan { index, var, pred } => {
                // An unqualified scan is the ordered-index-scan form and
                // delivers index-key order; its exact delivered SortSpec
                // depends on the path mapping, so stay conservative.
                let order = if !self.pred_empty(*pred) {
                    OrderInfo::Known(None)
                } else if self.index_ok(*index) && self.env.catalog.index(*index).path.is_empty() {
                    OrderInfo::Known(Some(SortSpec {
                        var: *var,
                        field: self.env.catalog.index(*index).key,
                    }))
                } else {
                    OrderInfo::Unknown
                };
                Derived {
                    produced: VarSet::single(*var),
                    mem: VarSet::single(*var),
                    order,
                }
            }
            PhysicalOp::Filter { pred } => {
                let d = kid(0);
                self.require_mem(*pred, d.mem, op, "predicate");
                d
            }
            PhysicalOp::HybridHashJoin { pred } => {
                let (l, r) = (kid(0), kid(1));
                self.require_mem(*pred, l.mem.union(r.mem), op, "join predicate");
                Derived {
                    produced: l.produced.union(r.produced),
                    mem: l.mem.union(r.mem),
                    // Order may pass through from the left input, but the
                    // hash table can also reorder probes; stay unknown.
                    order: OrderInfo::Unknown,
                }
            }
            PhysicalOp::PointerJoin { pred } => {
                let d = kid(0);
                self.require_mem(*pred, d.mem, op, "reference predicate");
                match self.ref_eq_target(*pred) {
                    Some(t) => d.with(t),
                    None => d,
                }
            }
            PhysicalOp::Assembly { targets, .. } => {
                let d = kid(0);
                targets.iter().fold(d, |out, &t| {
                    let before = format!(" before assembling {}", self.var_name(t));
                    self.check_assembled(t, d.mem, out.mem, &before, op);
                    out.with(t)
                })
            }
            PhysicalOp::WarmAssembly { target } => {
                let d = kid(0);
                self.check_assembled(*target, d.mem, d.mem, "", op);
                d.with(*target)
            }
            PhysicalOp::AlgProject { items } => {
                let d = kid(0);
                for v in items.iter().filter_map(Operand::mem_var) {
                    self.require_var_mem(v, d.mem, op, "projected object");
                }
                d
            }
            PhysicalOp::AlgUnnest { out } => {
                let d = kid(0);
                if self.var_ok(*out) {
                    if let VarOrigin::Unnest { src, .. } = self.env.scopes.var(*out).origin {
                        if !d.mem.contains(src) {
                            self.emit(
                                checks::INPUT_NOT_IN_MEMORY,
                                op,
                                format!("set owner {} in memory", self.var_name(src)),
                                format!("delivered {}", self.vars_string(d.mem)),
                            );
                        }
                    }
                }
                d.with(*out)
            }
            PhysicalOp::HashSetOp { .. } => {
                let (l, r) = (kid(0), kid(1));
                Derived {
                    produced: l.produced,
                    mem: l.mem.intersect(r.mem),
                    order: OrderInfo::Unknown,
                }
            }
            PhysicalOp::Sort { key } => {
                let d = kid(0);
                if self.var_ok(key.var) {
                    self.require_var_mem(key.var, d.mem, op, "sort-key object");
                }
                Derived {
                    order: OrderInfo::Known(Some(*key)),
                    ..d
                }
            }
            PhysicalOp::MergeJoin { pred } => {
                let (l, r) = (kid(0), kid(1));
                self.require_mem(*pred, l.mem.union(r.mem), op, "join predicate");
                self.check_merge_inputs(*pred, [l, r], op);
                Derived {
                    produced: l.produced.union(r.produced),
                    mem: l.mem.union(r.mem),
                    order: l.order,
                }
            }
        }
    }

    /// An assembly of `t` over an input delivering `input` in memory is
    /// redundant when `t` is already there; `t`'s reference source must be
    /// in `mem` (the input's residency plus earlier targets of the same
    /// assembly) before `t` is assembled. `when` qualifies the latter.
    fn check_assembled(&mut self, t: VarId, input: VarSet, mem: VarSet, when: &str, op: &str) {
        if input.contains(t) {
            self.emit(
                checks::REDUNDANT_ASSEMBLY,
                op,
                format!("{} not yet resident below", self.var_name(t)),
                "input already delivers it in memory".to_string(),
            );
        }
        if !self.var_ok(t) {
            return;
        }
        if let VarOrigin::Mat {
            src,
            field: Some(_),
        } = self.env.scopes.var(t).origin
        {
            if !mem.contains(src) {
                self.emit(
                    checks::INPUT_NOT_IN_MEMORY,
                    op,
                    format!("reference source {} in memory{when}", self.var_name(src)),
                    format!("delivered {}", self.vars_string(mem)),
                );
            }
        }
    }

    /// Each merge-join input must be sorted on its side of the leading
    /// attribute equality, where its order is known.
    fn check_merge_inputs(&mut self, pred: PredId, sides: [Derived; 2], op: &str) {
        if !self.pred_ok(pred) {
            return;
        }
        let Some(t) = self.env.preds.pred(pred).terms.first() else {
            return;
        };
        let (Operand::Attr { var: av, field: af }, Operand::Attr { var: bv, field: bf }) =
            (&t.left, &t.right)
        else {
            return;
        };
        // Assign each key to the side binding its variable, then demand
        // that side be sorted.
        let (a, b) = (
            SortSpec {
                var: *av,
                field: *af,
            },
            SortSpec {
                var: *bv,
                field: *bf,
            },
        );
        for (child, d) in sides.into_iter().enumerate() {
            let key = if d.produced.contains(a.var) {
                a
            } else if d.produced.contains(b.var) {
                b
            } else {
                continue;
            };
            if let OrderInfo::Known(got) = d.order {
                if got != Some(key) {
                    self.path.push(child);
                    let expected = format!("input sorted by {}", self.sort_string(Some(key)));
                    let actual = format!("sorted by {}", self.sort_string(got));
                    self.path.pop();
                    self.emit(checks::MERGE_INPUT_UNSORTED, op, expected, actual);
                }
            }
        }
    }

    /// Whether evaluating against `v` requires its object state (reference
    /// variables carry their value in the tuple).
    fn needs_memory(&self, v: VarId) -> bool {
        !self.var_ok(v) || !self.env.scopes.var(v).is_ref()
    }

    /// `what` (the role `v` plays) must be delivered in memory when
    /// evaluating it reads `v`'s object state.
    fn require_var_mem(&mut self, v: VarId, mem: VarSet, op: &str, what: &str) {
        if self.needs_memory(v) && !mem.contains(v) {
            self.emit(
                checks::INPUT_NOT_IN_MEMORY,
                op,
                format!("{what} {} in memory", self.var_name(v)),
                format!("delivered {}", self.vars_string(mem)),
            );
        }
    }

    /// Every variable whose object state the predicate reads must be
    /// delivered in memory.
    fn require_mem(&mut self, pred: PredId, mem: VarSet, op: &str, what: &str) {
        if !self.pred_ok(pred) {
            return; // the linter already reported the dangling id
        }
        for v in self.env.preds.mem_vars(pred) {
            self.require_var_mem(v, mem, op, &format!("{what} object"));
        }
    }
}
