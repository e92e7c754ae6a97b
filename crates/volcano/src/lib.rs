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
//! `Rc<RefCell<...>>` designs collapse; see DESIGN.md. An expression's
//! inputs are stored inline ([`Inputs`]: at most two), and rules write
//! into buffers the engine owns and reuses, so a search allocates per
//! query rather than per rewrite or candidate. Each rule declares the
//! operator tags ([`OptModel::tag`]) it consumes, and the engine offers
//! it only expressions with such a root:
//!
//! ```
//! use volcano::toy::{Toy, ToyOp, ToyPOp, ToySort};
//! use volcano::{Candidate, Expr, ImplRule, Memo, Rewrites, RuleSignature, TransformRule};
//!
//! /// `Join(A, B)` → `Join(B, A)`.
//! struct Commute;
//!
//! impl TransformRule<Toy> for Commute {
//!     fn name(&self) -> &'static str {
//!         "commute"
//!     }
//!     fn apply(&self, _: &Toy, _: &Memo<Toy>, expr: &Expr<Toy>, out: &mut Rewrites<ToyOp>) {
//!         if expr.op == ToyOp::Join {
//!             let [a, b] = [0, 1].map(|i| out.group(expr.children[i]));
//!             let swapped = out.op(ToyOp::Join, [b, a]);
//!             out.emit(swapped);
//!         }
//!     }
//!     fn signature(&self) -> RuleSignature {
//!         RuleSignature {
//!             consumes: &["Join"],
//!             produces: &["Join"],
//!             generative: false,
//!             // Swaps input groups without looking inside them.
//!             reads_inputs: false,
//!         }
//!     }
//! }
//!
//! /// A join as a hash join over unordered inputs.
//! struct HashJoin;
//!
//! impl ImplRule<Toy> for HashJoin {
//!     fn name(&self) -> &'static str {
//!         "hash-join"
//!     }
//!     fn consumes(&self) -> &'static [&'static str] {
//!         &["Join"]
//!     }
//!     fn implementations(
//!         &self,
//!         _: &Toy,
//!         _: &Memo<Toy>,
//!         expr: &Expr<Toy>,
//!         _required: &ToySort,
//!         out: &mut Vec<Candidate<Toy>>,
//!     ) {
//!         if expr.op == ToyOp::Join {
//!             out.push(Candidate {
//!                 op: ToyPOp::HashJoin,
//!                 inputs: expr.children.map(|g| (g, ToySort::default())),
//!                 delivers: ToySort::default(),
//!             });
//!         }
//!     }
//! }
//! ```
//!
//! The [`toy`] module contains a minimal complete model used by the unit
//! tests and as a template for new optimizers.

#![forbid(unsafe_code)]

mod dispatch;
pub mod enumerate;
mod fx;
pub mod inputs;
pub mod memo;
pub mod model;
pub mod rulegraph;
pub mod search;
pub mod stats;
pub mod toy;

pub use enumerate::{EnumLimits, Enumeration};
pub use inputs::{Inputs, TooManyInputs};
pub use memo::{Expr, ExprId, GroupId, Memo, RewriteNode, RewritePart, Rewrites};
pub use model::{
    Candidate, CostValue, EnforceCandidate, Enforcer, ImplRule, OptModel, RuleSet, RuleSignature,
    TransformRule,
};
pub use rulegraph::{prove_termination, CycleWitness, RuleGraph, TerminationProof};
pub use search::{Alternative, Optimizer, PlanNode, SearchConfig, TraceEvent, Winner};
pub use stats::SearchStats;
