//! The model-description traits: what a DBMS implementor supplies.
//!
//! This is the Rust analogue of Volcano's model description file plus
//! support functions. An [`OptModel`] defines the vocabularies (logical and
//! physical operators), the property types, the cost type, and the property
//! derivation and cost functions; [`TransformRule`]s, [`ImplRule`]s, and
//! [`Enforcer`]s populate a [`RuleSet`].

use crate::inputs::Inputs;
use crate::memo::{Expr, GroupId, Memo, Rewrites};
use std::fmt;
use std::hash::Hash;

/// A cost that can be accumulated and compared. Comparison is by scalar
/// [`CostValue::total`], which keeps richer breakdowns (I/O vs CPU)
/// available to the implementor while the search engine stays generic.
pub trait CostValue: Copy + fmt::Debug {
    /// The zero cost.
    fn zero() -> Self;
    /// Component-wise accumulation.
    fn add(self, other: Self) -> Self;
    /// Scalar magnitude used for plan comparison (e.g. seconds).
    fn total(self) -> f64;
}

impl CostValue for f64 {
    fn zero() -> Self {
        0.0
    }
    fn add(self, other: Self) -> Self {
        self + other
    }
    fn total(self) -> f64 {
        self
    }
}

/// The model description: operator vocabularies, properties, costs.
pub trait OptModel: Sized {
    /// Logical operator type. Equality/hashing define expression identity
    /// for memo deduplication, so operators must carry interned arguments.
    type LOp: Clone + Eq + Hash + fmt::Debug;
    /// Physical operator (execution algorithm / enforcer) type.
    type POp: Clone + fmt::Debug;
    /// Logical properties (schema/scope, cardinality, ...), derived
    /// bottom-up per group.
    type LProps: Clone + fmt::Debug;
    /// Physical property vector (sort order, presence in memory, ...).
    /// With a group it names a search goal; the engine interns the
    /// distinct vectors of a search and compares them for equality.
    type PProps: Clone + Eq + fmt::Debug;
    /// Cost type.
    type Cost: CostValue;

    /// Derives the logical properties of an expression from its operator
    /// and input properties ("property derivation functions that
    /// encapsulate schema manipulation, statistical descriptions of
    /// intermediate results, and selectivity estimation").
    fn derive_props(&self, op: &Self::LOp, inputs: &[&Self::LProps]) -> Self::LProps;

    /// An algorithm's local cost (inputs excluded), given its inputs' logical
    /// properties in order: the engine prices every candidate through it.
    fn cost(&self, op: &Self::POp, inputs: &[&Self::LProps]) -> Self::Cost;

    /// Whether a delivered property vector satisfies a required one.
    fn satisfies(&self, required: &Self::PProps, delivered: &Self::PProps) -> bool;

    /// The operator's tag (a display-level name like `"Join"`): the
    /// vocabulary [`RuleSignature`]s and [`ImplRule::consumes`] are written
    /// in. The engine fires a rule only on expressions whose root tag the
    /// rule consumes.
    fn tag(&self, op: &Self::LOp) -> &'static str;
}

/// Static metadata describing a transformation rule's rewrite shape. The
/// shapes are operator tags ([`OptModel::tag`]), not full patterns. The
/// engine dispatches on them: a rule fires only on roots it consumes, and
/// a debug build checks that every root it emits is one it produces.
/// [`crate::rulegraph`] reads them to prove the rule set terminates, which
/// needs only which rules can feed which, not the exact bindings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RuleSignature {
    /// Operator tags at the root of patterns this rule matches. Empty
    /// means unsigned: the rule fires on every root.
    pub consumes: &'static [&'static str],
    /// Operator tags at the root of expressions this rule can produce.
    pub produces: &'static [&'static str],
    /// Whether a firing can introduce arguments (predicates, operator
    /// parameters) outside the finite closure of the query's existing
    /// sub-terms. Non-generative rules only rearrange existing material,
    /// so the memo's duplicate elimination bounds any rewrite cycle they
    /// form; a *generative* rule inside a produce/consume cycle can mint
    /// fresh expressions forever.
    pub generative: bool,
    /// Whether the rule's pattern reads its input groups' expressions
    /// (join associativity looks at the left input's joins). A rule that
    /// only rearranges the root and its input group ids emits the same
    /// rewrites however those groups grow, so the engine fires it once
    /// per expression instead of again after every child growth.
    pub reads_inputs: bool,
}

impl RuleSignature {
    /// The signature of a rule that declared none: unknown shapes, assumed
    /// generative. Rule-graph analysis treats this as a failure — every
    /// rule must describe itself before termination can be proven.
    pub const UNSIGNED: RuleSignature = RuleSignature {
        consumes: &[],
        produces: &[],
        generative: true,
        reads_inputs: true,
    };

    /// Whether the rule declared any shape information.
    pub fn is_signed(&self) -> bool {
        !self.consumes.is_empty() || !self.produces.is_empty()
    }
}

/// A logical-to-logical transformation rule.
///
/// Rules receive one expression plus read access to the memo, so
/// multi-level patterns (join associativity, select-past-mat) match by
/// enumerating the child groups' expressions. The engine fires a rule only
/// on expressions whose root it consumes, and re-fires a rule that
/// [reads its inputs](RuleSignature::reads_inputs) whenever the child
/// groups have grown, so exhaustive exploration reaches a fixpoint.
pub trait TransformRule<M: OptModel> {
    /// Rule name (display, configuration, statistics).
    fn name(&self) -> &'static str;
    /// Applies the rule: emits zero or more expressions equivalent to
    /// `expr` into `out`, a buffer the engine owns, as nodes over existing
    /// groups.
    fn apply(&self, model: &M, memo: &Memo<M>, expr: &Expr<M>, out: &mut Rewrites<M::LOp>);
    /// Static rewrite-shape metadata: the engine's dispatch and the
    /// rule-graph termination analysis. The default is
    /// [`RuleSignature::UNSIGNED`], which fires on every root and
    /// which that analysis rejects — implementors are expected to describe
    /// every rule.
    fn signature(&self) -> RuleSignature {
        RuleSignature::UNSIGNED
    }
}

/// One physical alternative produced by an implementation rule.
#[derive(Clone, Debug)]
pub struct Candidate<M: OptModel> {
    /// The algorithm.
    pub op: M::POp,
    /// Input groups to optimize, each with the physical properties it is
    /// required to deliver (usually the expression's children, but a
    /// collapsing rule — e.g. select-materialize-get to index scan — may
    /// produce none).
    pub inputs: Inputs<(GroupId, M::PProps)>,
    /// Physical properties the operator delivers, assuming inputs deliver
    /// exactly their required properties.
    pub delivers: M::PProps,
}

/// A logical-to-physical implementation rule: "the implementation rules
/// establish the correspondence between logical algebra expressions and
/// execution algorithms."
pub trait ImplRule<M: OptModel> {
    /// Rule name.
    fn name(&self) -> &'static str;
    /// Operator tags ([`OptModel::tag`]) of the roots this rule
    /// implements: the engine offers it only those expressions. The
    /// default, empty, is offered every expression.
    fn consumes(&self) -> &'static [&'static str] {
        &[]
    }
    /// Proposes algorithms for `expr` under `required` properties, pushing
    /// them onto `out`, a buffer the engine owns. Push nothing when the
    /// rule cannot deliver them (e.g. an index scan cannot deliver
    /// referenced components in memory).
    fn implementations(
        &self,
        model: &M,
        memo: &Memo<M>,
        expr: &Expr<M>,
        required: &M::PProps,
        out: &mut Vec<Candidate<M>>,
    );
}

/// An enforcer candidate: a physical operator layered on the *same* group
/// optimized under weaker required properties.
#[derive(Clone, Debug)]
pub struct EnforceCandidate<M: OptModel> {
    /// The enforcer algorithm.
    pub op: M::POp,
    /// The weakened requirement passed to the input (must differ from the
    /// original requirement, or the search would not terminate).
    pub input_props: M::PProps,
    /// Properties delivered after enforcement.
    pub delivers: M::PProps,
}

/// A physical-property enforcer (sort, assembly-into-memory, ...).
pub trait Enforcer<M: OptModel> {
    /// Enforcer name.
    fn name(&self) -> &'static str;
    /// Proposes enforcement alternatives for a group under `required`,
    /// pushing them onto `out`, a buffer the engine owns.
    fn enforce(
        &self,
        model: &M,
        memo: &Memo<M>,
        group: GroupId,
        required: &M::PProps,
        out: &mut Vec<EnforceCandidate<M>>,
    );
}

/// The complete rule set of a generated optimizer.
pub struct RuleSet<M: OptModel> {
    /// Transformation rules.
    pub transforms: Vec<Box<dyn TransformRule<M>>>,
    /// Implementation rules.
    pub impls: Vec<Box<dyn ImplRule<M>>>,
    /// Property enforcers.
    pub enforcers: Vec<Box<dyn Enforcer<M>>>,
}

impl<M: OptModel> Default for RuleSet<M> {
    fn default() -> Self {
        RuleSet {
            transforms: Vec::new(),
            impls: Vec::new(),
            enforcers: Vec::new(),
        }
    }
}

impl<M: OptModel> RuleSet<M> {
    /// An empty rule set.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_is_a_cost() {
        let c = <f64 as CostValue>::zero().add(1.5).add(2.0);
        assert_eq!(c.total(), 3.5);
    }
}
