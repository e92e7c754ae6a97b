//! # `volcano` — a Volcano-style optimizer generator as a Rust library
//!
//! The original Volcano Optimizer Generator (Graefe & McKenna, ICDE 1993)
//! compiled a *model description file* — logical operators, algorithms,
//! transformation and implementation rules, property and cost functions —
//! together with a fixed search engine into an optimizer in C. This crate
//! plays the same role with Rust generics: the DBMS implementor supplies an
//! [`OptModel`] (the model description, pricing through [`OptModel::cost`])
//! and a [`RuleSet`] (the rules), and gets back the full search machinery:
//!
//! * a **memo** ([`Memo`]) — arena-allocated groups of logically
//!   equivalent expressions with hash-based duplicate elimination (which is
//!   what gives "global common subexpression factorization ... for free")
//!   and union-find group merging;
//! * **exhaustive transformation** to fixpoint ([`Optimizer::explore_all`])
//!   with per-expression rule-firing memoization;
//! * **top-down, goal-directed search** over *(group, required physical
//!   properties)* pairs ([`Optimizer::optimize_group`]): "the search
//!   process considers only those subplans that can deliver the physical
//!   properties that are required by the algorithm of the containing
//!   plan";
//! * **property enforcers** ([`Enforcer`]) that close property gaps —
//!   exploring "strategies not covered by exclusively algebraic
//!   optimization frameworks";
//! * optional **branch-and-bound pruning** and detailed [`SearchStats`].
//!
//! The memo is index-based (`GroupId`/`ExprId` into arenas) precisely
//! because plan-graph rewriting under shared ownership is where naive
//! `Rc<RefCell<...>>` designs collapse; see DESIGN.md.
//!
//! The [`toy`] module contains a minimal complete model used by the unit
//! tests and as a template for new optimizers.

#![forbid(unsafe_code)]

pub mod enumerate;
mod fx;
pub mod memo;
pub mod model;
pub mod rulegraph;
pub mod search;
pub mod stats;
pub mod toy;

pub use enumerate::{EnumLimits, Enumeration};
pub use memo::{Expr, ExprId, GroupId, Memo, Rewrite};
pub use model::{
    Candidate, CostValue, EnforceCandidate, Enforcer, ImplRule, OptModel, RuleSet, RuleSignature,
    TransformRule,
};
pub use rulegraph::{prove_termination, CycleWitness, RuleGraph, TerminationProof};
pub use search::{Optimizer, PlanNode, SearchConfig, TraceEvent, Winner};
pub use stats::SearchStats;
