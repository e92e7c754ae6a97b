//! Predicates with *simple* arguments.
//!
//! "We have designed our logical algebra so that as much as possible of the
//! query semantics is captured in the algebraic operators ... while the
//! operator arguments are as simple as possible." After simplification a
//! predicate is a conjunction of comparison terms whose operands are:
//! a constant, an embedded attribute of an in-scope variable, the OID of an
//! in-scope variable, or a single-valued reference field read as an OID.
//! Path expressions never appear — each link became a `Mat` operator.
//!
//! Predicates are interned in a [`PredArena`] so that structurally equal
//! predicates share a [`PredId`]; memo deduplication then falls out of id
//! equality.

use crate::scope::VarId;
use oodb_object::fx::FxBuild;
use oodb_object::{FieldId, Value};
use oodb_sync::{lock, AppendVec};
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

/// Identifier of an interned predicate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredId(u32);

impl PredId {
    /// Constructs from a raw arena index (tests/tools; normal code gets
    /// ids from [`PredArena::intern`]).
    pub fn from_index(i: usize) -> Self {
        PredId(i as u32)
    }
    /// The raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PredId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PredId({})", self.0)
    }
}

/// Comparison operators (the paper's queries use `==` and `>=`; all six
/// are supported).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates the operator against an ordering.
    pub fn test(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// The operator with sides swapped (`a < b` ⇔ `b > a`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Conversion to the dependency-free [`oodb_object::value::CmpLike`]
    /// shape used by storage-level range scans.
    pub fn as_cmp_like(self) -> oodb_object::value::CmpLike {
        use oodb_object::value::CmpLike as C;
        match self {
            CmpOp::Eq => C::Eq,
            CmpOp::Ne => C::Ne,
            CmpOp::Lt => C::Lt,
            CmpOp::Le => C::Le,
            CmpOp::Gt => C::Gt,
            CmpOp::Ge => C::Ge,
        }
    }

    /// Rendered symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A simple operand.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// A constant.
    Const(Value),
    /// Embedded attribute of an in-scope variable (`c.name`). Reading it
    /// requires the variable's object to be present in memory.
    Attr {
        /// The in-scope variable.
        var: VarId,
        /// An embedded attribute field.
        field: FieldId,
    },
    /// The identity (OID) of an in-scope variable (`d` compared as an
    /// object, or `n.self` in the paper's join notation). Identity travels
    /// with the tuple, so no memory presence is required.
    VarOid(VarId),
    /// A single-valued reference field read as an OID (`e.dept` on the
    /// left of `e.dept == d`). Requires the owning object in memory.
    RefField {
        /// The in-scope variable.
        var: VarId,
        /// A single-valued reference field.
        field: FieldId,
    },
    /// The reference value held by an `Unnest` output variable (`m` in
    /// `m == e.self`). Travels with the tuple; no memory needed.
    VarRef(VarId),
}

impl Operand {
    /// The variable whose *object state* must be in memory to evaluate
    /// this operand, if any.
    pub fn mem_var(&self) -> Option<VarId> {
        match self {
            Operand::Attr { var, .. } | Operand::RefField { var, .. } => Some(*var),
            Operand::Const(_) | Operand::VarOid(_) | Operand::VarRef(_) => None,
        }
    }

    /// Any variable this operand mentions.
    pub fn var(&self) -> Option<VarId> {
        match self {
            Operand::Attr { var, .. }
            | Operand::RefField { var, .. }
            | Operand::VarOid(var)
            | Operand::VarRef(var) => Some(*var),
            Operand::Const(_) => None,
        }
    }
}

/// One comparison term.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Term {
    /// Left operand.
    pub left: Operand,
    /// Operator.
    pub op: CmpOp,
    /// Right operand.
    pub right: Operand,
}

impl Term {
    /// True when this term equates a reference (field or unnested value)
    /// with an object's identity — the shape the Mat→Join rule produces
    /// and pointer-based join algorithms exploit. Returns
    /// `(ref_operand_side_is_left, target_var)`.
    pub fn as_ref_eq(&self) -> Option<(bool, VarId)> {
        if self.op != CmpOp::Eq {
            return None;
        }
        match (&self.left, &self.right) {
            (Operand::RefField { .. } | Operand::VarRef(_), Operand::VarOid(t)) => Some((true, *t)),
            (Operand::VarOid(t), Operand::RefField { .. } | Operand::VarRef(_)) => {
                Some((false, *t))
            }
            _ => None,
        }
    }
}

/// A conjunction of terms. The empty conjunction is `true`.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Pred {
    /// Conjuncts.
    pub terms: Vec<Term>,
}

impl Pred {
    /// Single-term predicate.
    pub fn term(t: Term) -> Self {
        Pred { terms: vec![t] }
    }
}

/// Interning arena for predicates.
///
/// Interior mutability lets *transformation rules* — which see the query
/// environment through a shared reference during search — intern the
/// predicates their rewrites need (conjunct splitting, the Mat→Join
/// reference equality). Each parsed query gets its own arena inside its
/// [`QueryEnv`], so interning is effectively single-writer; but cached
/// plans capture their env and are executed from many worker threads at
/// once, which makes *lookup* the hot cross-thread path — it runs once
/// per tuple during predicate evaluation.
///
/// The arena therefore stores predicates in an append-only
/// [`AppendVec`] whose slots never move: [`PredArena::pred`] is
/// lock-free (three atomic loads) and returns `&Pred` directly, no lock
/// and no clone. Writers (interning) serialize on a small mutex that
/// readers never touch, and the mutex is poison-recovering, so a
/// panicking rule thread can never wedge or poison the arena for
/// others.
///
/// [`QueryEnv`]: crate::QueryEnv
#[derive(Debug, Default)]
pub struct PredArena {
    /// Published predicates, indexed by [`PredId`]; addresses are stable.
    preds: AppendVec<Pred>,
    /// Dedup table guarding appends (structure → existing id). Hashed
    /// with the unkeyed [`FxBuild`]: the arena is one query's, so a text
    /// crafted to collide slows only its own compile, by no more than
    /// the search over the same conjuncts already costs.
    interned: Mutex<HashMap<Pred, PredId, FxBuild>>,
}

impl Clone for PredArena {
    fn clone(&self) -> Self {
        // Holding the intern lock pins the (map, preds) pair: appends
        // also run under it, so the clone is a consistent snapshot.
        let interned = lock(&self.interned);
        PredArena {
            preds: self.preds.clone(),
            interned: Mutex::new(interned.clone()),
        }
    }
}

impl PredArena {
    /// Interns a predicate, returning the shared id for its structure.
    pub fn intern(&self, p: Pred) -> PredId {
        let mut interned = lock(&self.interned);
        if let Some(&id) = interned.get(&p) {
            return id;
        }
        let id = PredId(self.preds.len() as u32);
        interned.insert(p.clone(), id);
        self.preds.push(p);
        id
    }

    /// Convenience: intern a single comparison.
    pub fn cmp(&self, left: Operand, op: CmpOp, right: Operand) -> PredId {
        self.intern(Pred::term(Term { left, op, right }))
    }

    /// Looks a predicate up. Lock-free; the reference is stable for the
    /// arena's lifetime (slots never move), so per-tuple evaluation
    /// pays no lock and no clone.
    pub fn pred(&self, id: PredId) -> &Pred {
        self.preds
            .get(id.index())
            .expect("PredId out of range for this arena")
    }

    /// Variables mentioned anywhere in the predicate.
    pub fn vars_used(&self, id: PredId) -> Vec<VarId> {
        let mut out = Vec::new();
        for t in &self.pred(id).terms {
            out.extend(t.left.var());
            out.extend(t.right.var());
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Variables whose object state must be present in memory to evaluate
    /// the predicate.
    pub fn mem_vars(&self, id: PredId) -> Vec<VarId> {
        let mut out = Vec::new();
        for t in &self.pred(id).terms {
            out.extend(t.left.mem_var());
            out.extend(t.right.mem_var());
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of interned predicates.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// True when nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VarId {
        VarId::from_index(i)
    }
    fn f(i: usize) -> FieldId {
        FieldId::from_index(i)
    }

    #[test]
    fn interning_shares_ids() {
        let arena = PredArena::default();
        let a = arena.cmp(
            Operand::Attr {
                var: v(0),
                field: f(1),
            },
            CmpOp::Eq,
            Operand::Const(Value::str("Joe")),
        );
        let b = arena.cmp(
            Operand::Attr {
                var: v(0),
                field: f(1),
            },
            CmpOp::Eq,
            Operand::Const(Value::str("Joe")),
        );
        let c = arena.cmp(
            Operand::Attr {
                var: v(0),
                field: f(1),
            },
            CmpOp::Eq,
            Operand::Const(Value::str("Ann")),
        );
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn mem_vars_skip_identity_operands() {
        let arena = PredArena::default();
        // e.dept == d : reading e.dept needs e in memory; d is identity only.
        let p = arena.cmp(
            Operand::RefField {
                var: v(0),
                field: f(0),
            },
            CmpOp::Eq,
            Operand::VarOid(v(1)),
        );
        assert_eq!(arena.mem_vars(p), vec![v(0)]);
        assert_eq!(arena.vars_used(p), vec![v(0), v(1)]);
    }

    #[test]
    fn ref_eq_detection() {
        let t = Term {
            left: Operand::RefField {
                var: v(0),
                field: f(0),
            },
            op: CmpOp::Eq,
            right: Operand::VarOid(v(1)),
        };
        assert_eq!(t.as_ref_eq(), Some((true, v(1))));
        let flipped = Term {
            left: Operand::VarOid(v(1)),
            op: CmpOp::Eq,
            right: Operand::VarRef(v(2)),
        };
        assert_eq!(flipped.as_ref_eq(), Some((false, v(1))));
        let not_ref = Term {
            left: Operand::Attr {
                var: v(0),
                field: f(0),
            },
            op: CmpOp::Eq,
            right: Operand::Const(Value::Int(3)),
        };
        assert_eq!(not_ref.as_ref_eq(), None);
    }

    #[test]
    fn cmp_op_semantics() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Ge.test(Equal));
        assert!(CmpOp::Ge.test(Greater));
        assert!(!CmpOp::Ge.test(Less));
        assert!(CmpOp::Ne.test(Less));
        assert_eq!(CmpOp::Lt.flipped(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.flipped(), CmpOp::Eq);
    }
}
