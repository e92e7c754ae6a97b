//! The Open OODB rule library: transformations, implementations,
//! enforcers, and the rule-set constructor.

pub mod enforce;
pub mod implement;
pub mod transform;

use crate::config::OptimizerConfig;
use crate::model::OodbModel;
use volcano::RuleSet;

/// Every rule of the library, in firing order: the one list rule sets
/// and rule names (each rule's own `name()`) come from.
pub fn library<'e>() -> RuleSet<OodbModel<'e>> {
    RuleSet {
        transforms: vec![
            Box::new(transform::SelectSplit),
            Box::new(transform::SelectMatSwap),
            Box::new(transform::SelectUnnestSwap),
            Box::new(transform::SelectJoinPush),
            Box::new(transform::SelectIntoJoin),
            Box::new(transform::MatToJoin),
            Box::new(transform::JoinCommute),
            Box::new(transform::JoinAssoc),
            Box::new(transform::MatMatSwap),
            Box::new(transform::MatJoinPush),
            Box::new(transform::SelectSetOpPush),
            Box::new(transform::MatSetOpPush),
        ],
        impls: vec![
            Box::new(implement::FileScanImpl),
            Box::new(implement::CollapseToIndexScanImpl),
            Box::new(implement::FilterImpl),
            Box::new(implement::HybridHashJoinImpl),
            Box::new(implement::PointerJoinImpl),
            Box::new(implement::AssemblyMatImpl),
            Box::new(implement::AlgUnnestImpl),
            Box::new(implement::AlgProjectImpl),
            Box::new(implement::HashSetOpImpl),
            Box::new(implement::WarmAssemblyImpl),
            Box::new(implement::OrderedIndexScanImpl),
            Box::new(implement::MergeJoinImpl),
        ],
        enforcers: vec![
            Box::new(enforce::AssemblyEnforcer),
            Box::new(enforce::SortEnforcer),
        ],
    }
}

/// Every rule's name, in firing order (for shells and sweeps).
pub fn names() -> Vec<&'static str> {
    let rs = library();
    let names = rs.transforms.iter().map(|r| r.name());
    let names = names.chain(rs.impls.iter().map(|r| r.name()));
    names.chain(rs.enforcers.iter().map(|r| r.name())).collect()
}

/// Builds the generated optimizer's rule set under a configuration
/// (disabled rules are simply not registered — exactly how the paper
/// "simulated" competing optimizers).
pub fn rule_set<'e>(config: &OptimizerConfig) -> RuleSet<OodbModel<'e>> {
    let mut rs = library();
    rs.transforms.retain(|r| config.enabled(r.name()));
    rs.impls.retain(|r| config.enabled(r.name()));
    rs.enforcers.retain(|r| config.enabled(r.name()));
    rs
}

#[cfg(test)]
mod tests;
