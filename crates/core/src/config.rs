//! Optimizer configuration: rule enablement and knobs.
//!
//! The paper evaluates competing optimizers by "disabling various rules in
//! our optimizer"; this module makes those experiments first-class. Rule
//! names are the stable strings returned by each rule's `name()`.

use std::collections::BTreeSet;

/// Stable rule names: each rule's `name()` returns one, and
/// [`crate::rules::library`] lists the rules in firing order.
pub mod rule_names {
    /// Split a conjunctive selection.
    pub const SELECT_SPLIT: &str = "select-split";
    /// Commute Select with Mat (both directions).
    pub const SELECT_MAT_SWAP: &str = "select-mat-swap";
    /// Commute Select with Unnest (both directions).
    pub const SELECT_UNNEST_SWAP: &str = "select-unnest-swap";
    /// Push Select into join inputs.
    pub const SELECT_JOIN_PUSH: &str = "select-join-push";
    /// Merge a selection spanning both join inputs into the join
    /// predicate (and split it back out).
    pub const SELECT_INTO_JOIN: &str = "select-into-join";
    /// Materialize → Join.
    pub const MAT_TO_JOIN: &str = "mat-to-join";
    /// Join commutativity.
    pub const JOIN_COMMUTE: &str = "join-commutativity";
    /// Join associativity.
    pub const JOIN_ASSOC: &str = "join-associativity";
    /// Commute adjacent Mat operators.
    pub const MAT_MAT_SWAP: &str = "mat-mat-swap";
    /// Push Mat into the join side holding its source.
    pub const MAT_JOIN_PUSH: &str = "mat-join-push";
    /// Move Select through set operators.
    pub const SELECT_SETOP_PUSH: &str = "select-setop-push";
    /// Move Mat through set operators.
    pub const MAT_SETOP_PUSH: &str = "mat-setop-push";
    /// Collapse select–materialize–get into an index scan.
    pub const COLLAPSE_TO_INDEX_SCAN: &str = "collapse-to-index-scan";
    /// File scan implementation of Get.
    pub const FILE_SCAN: &str = "file-scan";
    /// Filter implementation of Select.
    pub const FILTER: &str = "filter";
    /// Hybrid hash join implementation of Join.
    pub const HYBRID_HASH_JOIN: &str = "hybrid-hash-join";
    /// Pointer join implementation of Join.
    pub const POINTER_JOIN: &str = "pointer-join";
    /// Assembly implementation of Mat.
    pub const ASSEMBLY_MAT: &str = "assembly-mat";
    /// Alg-Unnest implementation of Unnest.
    pub const ALG_UNNEST: &str = "alg-unnest";
    /// Alg-Project implementation of Project.
    pub const ALG_PROJECT: &str = "alg-project";
    /// Hash set-operation implementations.
    pub const HASH_SET_OP: &str = "hash-set-op";
    /// Assembly as the present-in-memory enforcer.
    pub const ASSEMBLY_ENFORCER: &str = "assembly-enforcer";
    /// Warm-start assembly implementation of Mat (Lesson 7 extension).
    pub const WARM_ASSEMBLY: &str = "warm-assembly";
    /// Sort as the order enforcer (sort-order extension).
    pub const SORT_ENFORCER: &str = "sort-enforcer";
    /// Ordered full-index scan implementation of Get (sort-order
    /// extension).
    pub const ORDERED_INDEX_SCAN: &str = "ordered-index-scan";
    /// Merge-join implementation of value equi-joins (sort-order
    /// extension).
    pub const MERGE_JOIN: &str = "merge-join";
}

/// Resolves a user-typed rule name to its stable `&'static str` (needed
/// because [`OptimizerConfig::disabled_rules`] stores static strings).
pub fn rule_name_by_str(name: &str) -> Option<&'static str> {
    crate::rules::names().into_iter().find(|&n| n == name)
}

/// Optimizer configuration.
#[derive(Clone, Debug)]
pub struct OptimizerConfig {
    /// Rules excluded from the generated optimizer. The default set holds
    /// [`rule_names::WARM_ASSEMBLY`] — the paper's Lesson 7 future-work
    /// suggestion, not part of the 1993 rule set; removing the name
    /// enables it, as for any other rule.
    pub disabled_rules: BTreeSet<&'static str>,
    /// Assembly's window of open references (1 disables the elevator
    /// advantage — the paper's "W/o Window" row).
    pub assembly_window: u32,
    /// Branch-and-bound pruning (off for paper-faithful exhaustive
    /// search).
    pub prune: bool,
    /// Debug mode: statically verify every expression the memo holds at
    /// the end of search (not just the winning plan). Excluded from
    /// [`Self::fingerprint`] — verification never influences plan choice,
    /// so toggling it must not invalidate cached plans.
    pub verify_search: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            disabled_rules: BTreeSet::from([rule_names::WARM_ASSEMBLY]),
            assembly_window: 8192,
            prune: false,
            verify_search: false,
        }
    }
}

impl OptimizerConfig {
    /// The paper's "All Rules" configuration: every rule of the 1993 set
    /// (warm-start assembly, added since, stays disabled).
    pub fn all_rules() -> Self {
        Self::default()
    }

    /// "All Rules" with the named rules disabled as well.
    pub fn without(rules: &[&'static str]) -> Self {
        let mut config = Self::default();
        config.disabled_rules.extend(rules);
        config
    }

    /// The paper's "W/o Comm." configuration: join commutativity disabled,
    /// forcing naive pointer chasing (hybrid hash join is directional, so
    /// without commutativity the Mat→Join orientation has no efficient
    /// implementation).
    pub fn without_join_commutativity() -> Self {
        Self::without(&[rule_names::JOIN_COMMUTE])
    }

    /// The paper's "W/o Window" configuration: commutativity still
    /// disabled *and* the assembly window restricted to one, making
    /// assembly "similar to the lookup component of an unclustered index
    /// scan".
    pub fn without_window() -> Self {
        OptimizerConfig {
            assembly_window: 1,
            ..Self::without_join_commutativity()
        }
    }

    /// Whether a rule is enabled.
    pub fn enabled(&self, name: &str) -> bool {
        !self.disabled_rules.contains(name)
    }

    /// Returns the configuration with an extra rule disabled.
    pub fn and_without(mut self, rule: &'static str) -> Self {
        self.disabled_rules.insert(rule);
        self
    }

    /// A stable 64-bit FNV-1a fingerprint of every field that influences
    /// plan choice. Plan-cache keys include it so a plan optimized under
    /// one rule configuration is never served under another.
    pub fn fingerprint(&self) -> u64 {
        let text = format!(
            "rules:-{:?}|window:{}|prune:{}",
            self.disabled_rules, self.assembly_window, self.prune
        );
        oodb_algebra::fingerprint::fnv1a(text.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_everything() {
        let c = OptimizerConfig::default();
        assert!(c.enabled(rule_names::JOIN_COMMUTE));
        // …everything of 1993: the one later rule is off until asked for.
        assert!(!c.enabled(rule_names::WARM_ASSEMBLY));
        let wo_filter = OptimizerConfig::without(&[rule_names::FILTER]);
        assert!(!wo_filter.enabled(rule_names::WARM_ASSEMBLY));
        assert_eq!(c.assembly_window, 8192);
    }

    #[test]
    fn paper_configs() {
        let wo_comm = OptimizerConfig::without_join_commutativity();
        assert!(!wo_comm.enabled(rule_names::JOIN_COMMUTE));
        assert!(wo_comm.enabled(rule_names::MAT_TO_JOIN));
        let wo_window = OptimizerConfig::without_window();
        assert!(!wo_window.enabled(rule_names::JOIN_COMMUTE));
        assert_eq!(wo_window.assembly_window, 1);
    }

    #[test]
    fn chained_disable() {
        let c = OptimizerConfig::all_rules()
            .and_without(rule_names::COLLAPSE_TO_INDEX_SCAN)
            .and_without(rule_names::POINTER_JOIN);
        assert!(!c.enabled(rule_names::COLLAPSE_TO_INDEX_SCAN));
        assert!(!c.enabled(rule_names::POINTER_JOIN));
        assert!(c.enabled(rule_names::FILTER));
    }
}
