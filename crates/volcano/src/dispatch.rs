//! Rule dispatch by root tag: which rules can fire on an expression.
//!
//! Every rule declares the operator tags ([`crate::OptModel::tag`]) at the
//! root of what it consumes. The engine indexes its rules by those tags
//! once per optimizer, and offers an expression only the rules of its
//! root's tag. A rule that declares no tag is unsigned and sits in every
//! list, so it fires on every root, as every rule did before dispatch.

use std::ops::Range;

/// Rule positions grouped by consumed tag, each group in rule-set order.
pub(crate) struct Dispatch {
    /// Each tag some rule consumes, with its run in `rules`.
    runs: Vec<(&'static str, Range<usize>)>,
    /// The run of a tag no rule consumes: the unsigned rules alone.
    unsigned: Range<usize>,
    /// Rule positions, run after run.
    rules: Vec<usize>,
}

impl Dispatch {
    /// Indexes rules by the tags they consume; `consumes` yields each
    /// rule's tags in rule-set order.
    pub(crate) fn new<'t>(consumes: impl Iterator<Item = &'t [&'static str]> + Clone) -> Self {
        let mut runs: Vec<(&'static str, Range<usize>)> = Vec::new();
        let mut rules = Vec::new();
        let run_of = |fires: &dyn Fn(&[&'static str]) -> bool, rules: &mut Vec<usize>| {
            let start = rules.len();
            rules.extend(
                consumes
                    .clone()
                    .enumerate()
                    .filter(|(_, c)| fires(c))
                    .map(|(i, _)| i),
            );
            start..rules.len()
        };
        for &tag in consumes.clone().flatten() {
            if runs.iter().all(|(t, _)| *t != tag) {
                let run = run_of(&|c| c.is_empty() || c.contains(&tag), &mut rules);
                runs.push((tag, run));
            }
        }
        let unsigned = run_of(&|c| c.is_empty(), &mut rules);
        Dispatch {
            runs,
            unsigned,
            rules,
        }
    }

    /// The positions in [`Self::rule`] of the rules that fire on a root
    /// tagged `tag`.
    pub(crate) fn run(&self, tag: &str) -> Range<usize> {
        let found = self.runs.iter().find(|(t, _)| *t == tag);
        found.map_or(&self.unsigned, |(_, run)| run).clone()
    }

    /// The rule-set position of the rule at position `k` of a run.
    pub(crate) fn rule(&self, k: usize) -> usize {
        self.rules[k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fired(d: &Dispatch, tag: &str) -> Vec<usize> {
        d.run(tag).map(|k| d.rule(k)).collect()
    }

    #[test]
    fn each_tag_gets_its_consumers_and_the_unsigned_rules_in_order() {
        let consumes: [&[&str]; 4] = [&["Join"], &[], &["Select", "Join"], &["Select"]];
        let d = Dispatch::new(consumes.iter().copied());
        assert_eq!(fired(&d, "Join"), [0, 1, 2]);
        assert_eq!(fired(&d, "Select"), [1, 2, 3]);
        assert_eq!(fired(&d, "Get"), [1], "a tag no rule names: unsigned only");
    }

    #[test]
    fn no_rules_fire_nowhere() {
        let d = Dispatch::new(std::iter::empty());
        assert!(d.run("Join").is_empty());
    }
}
