//! The Open OODB rule library: transformations, implementations,
//! enforcers, and the rule-set constructor.

pub mod enforce;
pub mod implement;
pub mod transform;

use crate::config::{rule_names as rn, OptimizerConfig};
use crate::model::OodbModel;
use volcano::RuleSet;

/// Builds the generated optimizer's rule set under a configuration
/// (disabled rules are simply not registered — exactly how the paper
/// "simulated" competing optimizers).
pub fn rule_set<'e>(config: &OptimizerConfig) -> RuleSet<OodbModel<'e>> {
    let mut rs = RuleSet::new();

    macro_rules! transform {
        ($name:expr, $rule:expr) => {
            if config.enabled($name) {
                rs.transforms.push(Box::new($rule));
            }
        };
    }
    macro_rules! implement {
        ($name:expr, $rule:expr) => {
            if config.enabled($name) {
                rs.impls.push(Box::new($rule));
            }
        };
    }

    transform!(rn::SELECT_SPLIT, transform::SelectSplit);
    transform!(rn::SELECT_MAT_SWAP, transform::SelectMatSwap);
    transform!(rn::SELECT_UNNEST_SWAP, transform::SelectUnnestSwap);
    transform!(rn::SELECT_JOIN_PUSH, transform::SelectJoinPush);
    transform!(rn::SELECT_INTO_JOIN, transform::SelectIntoJoin);
    transform!(rn::MAT_TO_JOIN, transform::MatToJoin);
    transform!(rn::JOIN_COMMUTE, transform::JoinCommute);
    transform!(rn::JOIN_ASSOC, transform::JoinAssoc);
    transform!(rn::MAT_MAT_SWAP, transform::MatMatSwap);
    transform!(rn::MAT_JOIN_PUSH, transform::MatJoinPush);
    transform!(rn::SELECT_SETOP_PUSH, transform::SelectSetOpPush);
    transform!(rn::MAT_SETOP_PUSH, transform::MatSetOpPush);

    implement!(rn::FILE_SCAN, implement::FileScanImpl);
    implement!(
        rn::COLLAPSE_TO_INDEX_SCAN,
        implement::CollapseToIndexScanImpl
    );
    implement!(rn::FILTER, implement::FilterImpl);
    implement!(rn::HYBRID_HASH_JOIN, implement::HybridHashJoinImpl);
    implement!(rn::POINTER_JOIN, implement::PointerJoinImpl);
    implement!(rn::ASSEMBLY_MAT, implement::AssemblyMatImpl);
    implement!(rn::ALG_UNNEST, implement::AlgUnnestImpl);
    implement!(rn::ALG_PROJECT, implement::AlgProjectImpl);
    implement!(rn::HASH_SET_OP, implement::HashSetOpImpl);
    implement!(rn::WARM_ASSEMBLY, implement::WarmAssemblyImpl);

    implement!(rn::ORDERED_INDEX_SCAN, implement::OrderedIndexScanImpl);
    implement!(rn::MERGE_JOIN, implement::MergeJoinImpl);

    if config.enabled(rn::ASSEMBLY_ENFORCER) {
        rs.enforcers.push(Box::new(enforce::AssemblyEnforcer));
    }
    if config.enabled(rn::SORT_ENFORCER) {
        rs.enforcers.push(Box::new(enforce::SortEnforcer));
    }
    rs
}

#[cfg(test)]
mod tests;
