//! Rule-dependency-graph termination analysis.
//!
//! Every transformation rule declares a [`RuleSignature`]: the operator
//! shapes it consumes and produces, and whether it is *generative* (can
//! mint arguments outside the finite closure of the query's sub-terms).
//! This module builds the directed graph with an edge `A → B` whenever a
//! shape `A` produces is one `B` consumes — i.e. a firing of `A` can
//! enable a firing of `B` — and proves the rule set terminates:
//!
//! * Non-generative cycles are safe: such rules only rearrange existing
//!   operators over existing groups, so the reachable expression space is
//!   finite and the memo's duplicate elimination cuts the cycle (join
//!   commutativity firing twice lands on an already-interned expression).
//! * A cycle containing a **generative** rule is not self-limiting: each
//!   lap can produce an expression the memo has never seen, and
//!   exploration never reaches a fixpoint. The analysis fails with a
//!   rendered [`CycleWitness`] naming the rules and connecting shapes.
//! * **Unsigned** rules ([`RuleSignature::UNSIGNED`]) fail the analysis
//!   outright: a rule nobody described cannot be reasoned about, and
//!   assuming the worst forces the discipline that keeps the proof
//!   meaningful as rules are added.

use crate::model::{OptModel, RuleSet, RuleSignature};
use std::fmt;

/// The rule-dependency graph of a rule set's transformation rules.
pub struct RuleGraph {
    /// Rule names, indexed as in the rule set.
    pub names: Vec<&'static str>,
    /// Rule signatures, same indexing.
    pub signatures: Vec<RuleSignature>,
    /// `edges[a]` lists `(b, shape)`: `a` produces `shape`, `b` consumes
    /// it.
    pub edges: Vec<Vec<(usize, &'static str)>>,
}

/// Statistics of a successful termination proof.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TerminationProof {
    /// Rules analyzed.
    pub rules: usize,
    /// Enablement edges in the graph.
    pub edges: usize,
    /// Rules participating in at least one (safe, non-generative) cycle.
    pub cyclic_rules: usize,
}

/// A rendered counterexample: why termination could not be proven.
#[derive(Clone, Debug)]
pub struct CycleWitness {
    /// The offending rules in firing order. For an unsigned-rule failure
    /// this is the single rule; for a generative cycle it is the cycle
    /// path, first rule repeated at the end.
    pub rules: Vec<&'static str>,
    /// The shapes connecting consecutive rules (`rules.len() - 1` of them
    /// for a cycle; empty for an unsigned-rule failure).
    pub shapes: Vec<&'static str>,
    /// One-line explanation.
    pub reason: String,
}

impl fmt::Display for CycleWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.reason)?;
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                let shape = self.shapes.get(i - 1).copied().unwrap_or("?");
                write!(f, " \u{2500}{shape}\u{2192} ")?;
            }
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

impl RuleGraph {
    /// Builds the dependency graph of a rule set's transforms.
    pub fn build<M: OptModel>(rules: &RuleSet<M>) -> RuleGraph {
        let names: Vec<&'static str> = rules.transforms.iter().map(|r| r.name()).collect();
        let signatures: Vec<RuleSignature> =
            rules.transforms.iter().map(|r| r.signature()).collect();
        let mut edges = vec![Vec::new(); names.len()];
        for (a, sa) in signatures.iter().enumerate() {
            for (b, sb) in signatures.iter().enumerate() {
                if let Some(shape) = sa
                    .produces
                    .iter()
                    .find(|p| sb.consumes.contains(p))
                    .copied()
                {
                    edges[a].push((b, shape));
                }
            }
        }
        RuleGraph {
            names,
            signatures,
            edges,
        }
    }

    /// Proves the rule set terminates under memo-based exploration, or
    /// returns a witness of why it might not. See the module docs for the
    /// criterion.
    pub fn prove_termination(&self) -> Result<TerminationProof, CycleWitness> {
        if let Some(i) = self.signatures.iter().position(|s| !s.is_signed()) {
            return Err(CycleWitness {
                rules: vec![self.names[i]],
                shapes: vec![],
                reason: format!(
                    "rule '{}' declares no signature (consumes/produces unknown, assumed generative)",
                    self.names[i]
                ),
            });
        }
        let n = self.names.len();
        let mut cyclic = vec![false; n];
        for start in 0..n {
            if let Some((path, shapes)) = self.cycle_through(start) {
                for &r in &path {
                    cyclic[r] = true;
                }
                if path.iter().any(|&r| self.signatures[r].generative) {
                    let mut rules: Vec<&'static str> =
                        path.iter().map(|&r| self.names[r]).collect();
                    rules.push(self.names[path[0]]);
                    return Err(CycleWitness {
                        rules,
                        shapes,
                        reason: "generative rule inside a rewrite cycle the memo cannot cut"
                            .to_string(),
                    });
                }
            }
        }
        Ok(TerminationProof {
            rules: n,
            edges: self.edges.iter().map(Vec::len).sum(),
            cyclic_rules: cyclic.iter().filter(|&&c| c).count(),
        })
    }

    /// The shortest cycle through `start` (BFS over enablement edges),
    /// as (rule path, connecting shapes). `None` if no cycle passes
    /// through `start`.
    fn cycle_through(&self, start: usize) -> Option<(Vec<usize>, Vec<&'static str>)> {
        // BFS from each successor of `start` back to `start`.
        let mut parent: Vec<Option<(usize, &'static str)>> = vec![None; self.names.len()];
        let mut queue = std::collections::VecDeque::new();
        for &(b, shape) in &self.edges[start] {
            if b == start {
                return Some((vec![start], vec![shape]));
            }
            if parent[b].is_none() {
                parent[b] = Some((start, shape));
                queue.push_back(b);
            }
        }
        while let Some(u) = queue.pop_front() {
            for &(v, shape) in &self.edges[u] {
                if v == start {
                    // Reconstruct start → ... → u, then close with u → start.
                    let mut path = vec![u];
                    let mut shapes = vec![shape];
                    let mut cur = u;
                    while let Some((p, s)) = parent[cur] {
                        shapes.push(s);
                        if p == start {
                            break;
                        }
                        path.push(p);
                        cur = p;
                    }
                    path.push(start);
                    path.reverse();
                    shapes.reverse();
                    return Some((path, shapes));
                }
                if v != start && parent[v].is_none() {
                    parent[v] = Some((u, shape));
                    queue.push_back(v);
                }
            }
        }
        None
    }
}

/// Convenience: build the graph and prove termination in one call.
pub fn prove_termination<M: OptModel>(
    rules: &RuleSet<M>,
) -> Result<TerminationProof, CycleWitness> {
    RuleGraph::build(rules).prove_termination()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::{Expr, Memo, Rewrites};
    use crate::model::TransformRule;
    use crate::toy::{toy_rules, Toy, ToyOp};

    #[test]
    fn toy_rule_set_terminates() {
        let rules = toy_rules();
        let proof = prove_termination(&rules).expect("toy rules terminate");
        assert_eq!(proof.rules, 2);
        // commute/assoc feed each other and themselves: 4 edges, all in
        // safe non-generative cycles.
        assert_eq!(proof.edges, 4);
        assert_eq!(proof.cyclic_rules, 2);
    }

    /// A rule that claims to mint fresh join predicates forever.
    struct Inflate;
    impl TransformRule<Toy> for Inflate {
        fn name(&self) -> &'static str {
            "inflate"
        }
        fn apply(&self, _m: &Toy, _memo: &Memo<Toy>, _e: &Expr<Toy>, _: &mut Rewrites<ToyOp>) {}
        fn signature(&self) -> crate::model::RuleSignature {
            crate::model::RuleSignature {
                consumes: &["Join"],
                produces: &["Join"],
                generative: true,
                reads_inputs: true,
            }
        }
    }

    #[test]
    fn generative_cycle_is_rejected_with_witness() {
        let mut rules = toy_rules();
        rules.transforms.push(Box::new(Inflate));
        let w = prove_termination(&rules).expect_err("generative cycle");
        assert!(w.rules.contains(&"inflate"), "{w}");
        let rendered = w.to_string();
        assert!(
            rendered.contains("inflate") && rendered.contains("Join"),
            "witness must name rules and shapes: {rendered}"
        );
        // The witness closes the loop: first and last rule agree.
        assert_eq!(w.rules.first(), w.rules.last());
    }

    /// Generative but acyclic: fires once, cannot re-enable itself.
    struct OneShot;
    impl TransformRule<Toy> for OneShot {
        fn name(&self) -> &'static str {
            "one-shot"
        }
        fn apply(&self, _m: &Toy, _memo: &Memo<Toy>, _e: &Expr<Toy>, _: &mut Rewrites<ToyOp>) {}
        fn signature(&self) -> crate::model::RuleSignature {
            crate::model::RuleSignature {
                consumes: &["Select"],
                produces: &["IndexScanShape"],
                generative: true,
                reads_inputs: true,
            }
        }
    }

    #[test]
    fn generative_rule_outside_cycles_is_fine() {
        let mut rules = toy_rules();
        rules.transforms.push(Box::new(OneShot));
        let proof = prove_termination(&rules).expect("acyclic generative rule is safe");
        assert_eq!(proof.rules, 3);
    }

    struct Anonymous;
    impl TransformRule<Toy> for Anonymous {
        fn name(&self) -> &'static str {
            "anonymous"
        }
        fn apply(&self, _m: &Toy, _memo: &Memo<Toy>, _e: &Expr<Toy>, _: &mut Rewrites<ToyOp>) {}
        // No signature override: UNSIGNED.
    }

    #[test]
    fn unsigned_rule_fails_the_proof() {
        let mut rules = toy_rules();
        rules.transforms.push(Box::new(Anonymous));
        let w = prove_termination(&rules).expect_err("unsigned rules are rejected");
        assert_eq!(w.rules, vec!["anonymous"]);
        assert!(w.to_string().contains("no signature"), "{w}");
    }

    #[test]
    fn self_loop_witness_renders() {
        let rules: crate::model::RuleSet<Toy> = crate::model::RuleSet {
            transforms: vec![Box::new(Inflate)],
            impls: vec![],
            enforcers: vec![],
        };
        let w = prove_termination(&rules).expect_err("self-loop");
        assert_eq!(w.rules, vec!["inflate", "inflate"]);
        assert_eq!(w.shapes, vec!["Join"]);
    }
}
