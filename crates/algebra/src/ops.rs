//! The logical and physical operator vocabularies.
//!
//! Logical operators carry *simple arguments only* — interned predicate
//! ids, variable ids, collection ids. Note the trick that keeps `Mat` and
//! `Unnest` hashable one-liners: the output variable's
//! [`crate::VarOrigin`] already records the source variable and field, so
//! the operator needs nothing but `out`.

use crate::pred::{Operand, PredId};
use crate::scope::VarId;
use oodb_object::{CollectionId, IndexId};

/// Set-operator kind (value/OID-matching operations "developed in the
/// relational context \[that\] remain relevant in object-oriented database
/// systems").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SetOpKind {
    /// Set union.
    Union,
    /// Set intersection.
    Intersect,
    /// Set difference.
    Difference,
}

impl SetOpKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SetOpKind::Union => "Union",
            SetOpKind::Intersect => "Intersect",
            SetOpKind::Difference => "Difference",
        }
    }
}

/// A logical operator — the optimizer's input vocabulary.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum LogicalOp {
    /// Scan a named collection, bringing `var` into scope.
    Get {
        /// Collection scanned.
        coll: CollectionId,
        /// Variable introduced.
        var: VarId,
    },
    /// Filter by an interned predicate.
    Select {
        /// The predicate.
        pred: PredId,
    },
    /// Produce output items (object construction with new identity — the
    /// `Newobject(...)` of ZQL).
    Project {
        /// Output expressions.
        items: Vec<Operand>,
    },
    /// Join two inputs on a predicate (value- or identity-based).
    Join {
        /// The join predicate.
        pred: PredId,
    },
    /// The novel *materialize* operator: bring the component referenced by
    /// `out`'s origin into scope. "It lets elements of a path expression
    /// come into scope so that these elements may be used in later
    /// operations."
    Mat {
        /// The variable materialized (origin `Mat { src, field }`).
        out: VarId,
    },
    /// Reveal the references in a set-valued component as one tuple per
    /// element.
    Unnest {
        /// The variable introduced (origin `Unnest { src, field }`).
        out: VarId,
    },
    /// Union/intersection/difference of two inputs over the same scope.
    SetOp {
        /// Which set operation.
        kind: SetOpKind,
    },
}

impl LogicalOp {
    /// Number of inputs this operator takes.
    pub fn arity(&self) -> usize {
        match self {
            LogicalOp::Get { .. } => 0,
            LogicalOp::Select { .. }
            | LogicalOp::Project { .. }
            | LogicalOp::Mat { .. }
            | LogicalOp::Unnest { .. } => 1,
            LogicalOp::Join { .. } | LogicalOp::SetOp { .. } => 2,
        }
    }

    /// The operator's name whatever its arguments (every set operation is
    /// `SetOp`): the rules' dispatch tag and the linter's operator label.
    /// Inlined: the search dispatches on it once per expression.
    #[inline]
    pub fn tag(&self) -> &'static str {
        match self {
            LogicalOp::Get { .. } => "Get",
            LogicalOp::Select { .. } => "Select",
            LogicalOp::Project { .. } => "Project",
            LogicalOp::Join { .. } => "Join",
            LogicalOp::Mat { .. } => "Mat",
            LogicalOp::Unnest { .. } => "Unnest",
            LogicalOp::SetOp { .. } => "SetOp",
        }
    }
}

/// A physical operator — an execution algorithm (or property enforcer).
#[derive(Clone, PartialEq, Debug)]
pub enum PhysicalOp {
    /// Sequential scan of a collection's dense pages.
    FileScan {
        /// Collection scanned.
        coll: CollectionId,
        /// Variable delivered (in memory).
        var: VarId,
    },
    /// Index scan, possibly over a *path* index: evaluates `pred` through
    /// the index and fetches only matching base objects. Intermediate path
    /// components are never read — the collapsed form of
    /// select–materialize–get.
    IndexScan {
        /// The index used.
        index: IndexId,
        /// Base variable delivered.
        var: VarId,
        /// Predicate answered by the index.
        pred: PredId,
    },
    /// Predicate evaluation over in-memory objects.
    Filter {
        /// The predicate.
        pred: PredId,
    },
    /// Hybrid hash join (build on the smaller input; also used for
    /// identity joins between a reference and OIDs).
    HybridHashJoin {
        /// The join predicate.
        pred: PredId,
    },
    /// Pointer-based join (Shekita–Carey): resolves a reference equi-join
    /// by partitioned fetching of the referenced objects instead of
    /// scanning the target collection.
    PointerJoin {
        /// The join predicate (must be a reference equality).
        pred: PredId,
    },
    /// Complex-object assembly (Keller–Graefe–Maier): materializes the
    /// target variables by resolving references with a *window* of open
    /// references, sequencing disk reads in an elevator pattern. Serves
    /// both as the implementation of `Mat` and as the enforcer of the
    /// present-in-memory property.
    Assembly {
        /// Variables materialized, in dependency order.
        targets: Vec<VarId>,
        /// Window of open references (1 disables the elevator advantage).
        window: u32,
    },
    /// Warm-start assembly (the paper's Lesson 7 suggestion): scan the
    /// referenced component's whole collection sequentially into memory
    /// *before* resolving references, trading per-reference faults for one
    /// sequential sweep. Wins when references far outnumber the domain's
    /// pages. Off by default in the optimizer (it is the paper's future
    /// work, not its 1993 rule set).
    WarmAssembly {
        /// The variable materialized.
        target: VarId,
    },
    /// Physical projection; requires its referenced variables in memory.
    AlgProject {
        /// Output expressions.
        items: Vec<Operand>,
    },
    /// Physical unnest.
    AlgUnnest {
        /// Variable introduced (references).
        out: VarId,
    },
    /// Hash-based set operation on object identity.
    HashSetOp {
        /// Which set operation.
        kind: SetOpKind,
    },
    /// In-memory sort — the enforcer for the sort-order physical property
    /// (our extension beyond the 1993 prototype).
    Sort {
        /// The ordering produced.
        key: crate::props::SortSpec,
    },
    /// Merge join over inputs sorted on the join attributes — the
    /// algorithm whose absence in the 1993 prototype was the reason it
    /// "supports only presence in memory". Requires a value (attribute)
    /// equality predicate.
    MergeJoin {
        /// The join predicate (first term must be `Attr == Attr`).
        pred: PredId,
    },
}

impl PhysicalOp {
    /// Number of inputs.
    pub fn arity(&self) -> usize {
        match self {
            PhysicalOp::FileScan { .. } | PhysicalOp::IndexScan { .. } => 0,
            PhysicalOp::Filter { .. }
            | PhysicalOp::Assembly { .. }
            | PhysicalOp::WarmAssembly { .. }
            | PhysicalOp::AlgProject { .. }
            | PhysicalOp::AlgUnnest { .. }
            | PhysicalOp::Sort { .. } => 1,
            PhysicalOp::HybridHashJoin { .. }
            | PhysicalOp::PointerJoin { .. }
            | PhysicalOp::MergeJoin { .. }
            | PhysicalOp::HashSetOp { .. } => 2,
        }
    }

    /// Short algorithm name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            PhysicalOp::FileScan { .. } => "File Scan",
            PhysicalOp::IndexScan { .. } => "Index Scan",
            PhysicalOp::Filter { .. } => "Filter",
            PhysicalOp::HybridHashJoin { .. } => "Hybrid Hash Join",
            PhysicalOp::PointerJoin { .. } => "Pointer Join",
            PhysicalOp::Assembly { .. } => "Assembly",
            PhysicalOp::WarmAssembly { .. } => "Warm Assembly",
            PhysicalOp::Sort { .. } => "Sort",
            PhysicalOp::MergeJoin { .. } => "Merge Join",
            PhysicalOp::AlgProject { .. } => "Alg-Project",
            PhysicalOp::AlgUnnest { .. } => "Alg-Unnest",
            PhysicalOp::HashSetOp { kind } => match kind {
                SetOpKind::Union => "Hash Union",
                SetOpKind::Intersect => "Hash Intersect",
                SetOpKind::Difference => "Hash Difference",
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arities() {
        let v = VarId::from_index(0);
        assert_eq!(
            LogicalOp::Get {
                coll: CollectionId::from_index(0),
                var: v
            }
            .arity(),
            0
        );
        assert_eq!(LogicalOp::Mat { out: v }.arity(), 1);
        assert_eq!(
            LogicalOp::SetOp {
                kind: SetOpKind::Union
            }
            .arity(),
            2
        );
        assert_eq!(
            PhysicalOp::Assembly {
                targets: vec![v],
                window: 8192
            }
            .arity(),
            1
        );
    }

    #[test]
    fn logical_ops_hash_and_compare_by_ids() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        let a = LogicalOp::Mat {
            out: VarId::from_index(1),
        };
        let b = LogicalOp::Mat {
            out: VarId::from_index(1),
        };
        set.insert(a);
        assert!(set.contains(&b), "structurally equal ops must collide");
    }
}
