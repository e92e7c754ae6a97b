//! Observed-selectivity overlays for feedback-driven re-optimization.
//!
//! The feedback loop never mutates the catalog: observed selectivities are
//! carried in a [`StatsOverlay`] — an immutable map from canonical
//! *predicate keys* to observed selectivity fractions — that the cost
//! model consults before falling back to catalog statistics. Epoch
//! snapshots, the plan-space auditor, and every other catalog reader stay
//! sound because the catalog they see is unchanged; only the estimates of
//! the one re-optimization run are corrected.
//!
//! Predicate keys ([`pred_key`]) are stable across plan shapes and query
//! respellings: variables are identified by their *origin chain* (the
//! collection they scan, or the reference path that materialized them),
//! not by [`crate::VarId`] interning order, and terms are canonicalized
//! exactly like [`crate::fingerprint()`] does (symmetric comparisons
//! sorted, `>`/`>=` flipped, conjuncts sorted). The key for the
//! single-term predicate on an index scan therefore equals the key the
//! same term gets inside a larger filter conjunction.

use crate::fingerprint::fnv1a;
use crate::pred::{CmpOp, Operand, Pred};
use crate::scope::{VarId, VarOrigin};
use crate::QueryEnv;
use std::collections::BTreeMap;

/// Selectivities below this floor are clamped up; a zero would zero out
/// every downstream estimate and below ~1e-9 the difference is noise.
pub const MIN_OVERLAY_SEL: f64 = 1e-9;

/// A set of observed-selectivity overrides keyed by canonical predicate
/// key ([`pred_key`]). Values are fractions in `[1e-9, 1.0]` — the
/// observed rows-out/rows-in ratio of the predicate.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsOverlay {
    overrides: BTreeMap<String, f64>,
}

impl StatsOverlay {
    /// An empty overlay (no overrides; fingerprint 0).
    pub fn new() -> Self {
        StatsOverlay::default()
    }

    /// Records an observed selectivity for a predicate key, clamped to
    /// `[`[`MIN_OVERLAY_SEL`]`, 1.0]`. Non-finite observations are
    /// ignored — a NaN must never poison the cost model.
    pub fn set(&mut self, key: impl Into<String>, sel: f64) {
        if !sel.is_finite() {
            return;
        }
        self.overrides
            .insert(key.into(), sel.clamp(MIN_OVERLAY_SEL, 1.0));
    }

    /// The observed selectivity for a predicate key, if recorded.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.overrides.get(key).copied()
    }

    /// True when the overlay carries no overrides.
    pub fn is_empty(&self) -> bool {
        self.overrides.is_empty()
    }

    /// Number of overrides.
    pub fn len(&self) -> usize {
        self.overrides.len()
    }

    /// Iterates `(key, selectivity)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.overrides.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// A deterministic 64-bit fingerprint of the override set, for plan
    /// cache keys: `0` for the empty overlay (the catalog-only world), and
    /// an FNV-1a hash over the sorted `(key, selectivity-bits)` pairs
    /// otherwise. Two overlays with equal contents always collide; the
    /// empty overlay never collides with a non-empty one because the hash
    /// seed is nonzero and at least one byte is fed.
    pub fn fingerprint(&self) -> u64 {
        if self.overrides.is_empty() {
            return 0;
        }
        let mut buf = Vec::with_capacity(self.overrides.len() * 24);
        for (k, v) in &self.overrides {
            buf.extend_from_slice(k.as_bytes());
            buf.push(b'=');
            buf.extend_from_slice(&v.to_bits().to_le_bytes());
            buf.push(b';');
        }
        fnv1a(&buf).max(1)
    }
}

/// The origin-chain path of a variable: the collection it scans, or the
/// reference path that brought it into scope (`Employees.dept`,
/// `Tasks[team_members].*`). Unlike `$n` fingerprint numbering this is
/// independent of plan shape, so a key computed from a physical operator
/// after optimization matches the key computed from the logical predicate
/// before it.
pub fn var_path(env: &QueryEnv, v: VarId) -> String {
    match env.scopes.var(v).origin {
        VarOrigin::Get(coll) => env.catalog.collection(coll).name.clone(),
        VarOrigin::Mat { src, field } => {
            let mut p = var_path(env, src);
            match field {
                Some(f) => {
                    p.push('.');
                    p.push_str(&env.schema.field(f).name);
                }
                None => p.push_str(".*"),
            }
            p
        }
        VarOrigin::Unnest { src, field } => {
            let mut p = var_path(env, src);
            p.push('[');
            p.push_str(&env.schema.field(field).name);
            p.push(']');
            p
        }
    }
}

fn operand_key(env: &QueryEnv, o: &Operand) -> String {
    match o {
        Operand::Const(v) => format!("c:{v:?}"),
        Operand::Attr { var, field } => {
            format!(
                "a:{}.{}",
                var_path(env, *var),
                env.schema.field(*field).name
            )
        }
        Operand::VarOid(v) => format!("o:{}", var_path(env, *v)),
        Operand::RefField { var, field } => {
            format!(
                "r:{}.{}",
                var_path(env, *var),
                env.schema.field(*field).name
            )
        }
        Operand::VarRef(v) => format!("v:{}", var_path(env, *v)),
    }
}

/// The canonical key of one comparison term: operands by origin-chain
/// path, symmetric comparators operand-sorted, `>`/`>=` rewritten as
/// `<`/`<=` — the same normalizations [`crate::fingerprint()`] applies, so
/// respellings of a term share a key.
pub fn term_key(env: &QueryEnv, term: &crate::pred::Term) -> String {
    let mut left = operand_key(env, &term.left);
    let mut right = operand_key(env, &term.right);
    let mut op = term.op;
    match op {
        CmpOp::Eq | CmpOp::Ne => {
            if left > right {
                std::mem::swap(&mut left, &mut right);
            }
        }
        CmpOp::Gt | CmpOp::Ge => {
            op = op.flipped();
            std::mem::swap(&mut left, &mut right);
        }
        CmpOp::Lt | CmpOp::Le => {}
    }
    left.push_str(op.symbol());
    left.push_str(&right);
    left
}

/// The canonical key of a conjunction: each term's [`term_key`], sorted
/// and `&`-joined. A single-term predicate's key equals its term key, so
/// an index-scan residual and the same term inside a filter share one
/// override.
pub fn pred_key(env: &QueryEnv, pred: &Pred) -> String {
    let mut terms: Vec<String> = pred.terms.iter().map(|t| term_key(env, t)).collect();
    terms.sort_unstable();
    terms.join("&")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::{Operand, Term};
    use crate::QueryBuilder;
    use oodb_object::paper::paper_model;
    use oodb_object::Value;

    #[test]
    fn keys_erase_variable_identity_and_term_order() {
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (_cities, c) = qb.get(m.ids.cities, "c");
        let (_cities2, x) = qb.get(m.ids.cities, "renamed");
        let env = qb.into_env();
        let t = |var, n: i64| Term {
            left: Operand::Attr {
                var,
                field: m.ids.city_population,
            },
            op: CmpOp::Eq,
            right: Operand::Const(Value::Int(n)),
        };
        // Same collection, different VarId, flipped operand order: one key.
        let a = term_key(&env, &t(c, 7));
        let flipped = Term {
            left: Operand::Const(Value::Int(7)),
            op: CmpOp::Eq,
            right: Operand::Attr {
                var: x,
                field: m.ids.city_population,
            },
        };
        assert_eq!(a, term_key(&env, &flipped));
        // Conjunct order is erased.
        let p1 = Pred {
            terms: vec![t(c, 1), t(c, 2)],
        };
        let p2 = Pred {
            terms: vec![t(c, 2), t(c, 1)],
        };
        assert_eq!(pred_key(&env, &p1), pred_key(&env, &p2));
    }

    #[test]
    fn mat_var_paths_follow_the_origin_chain() {
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (cities, c) = qb.get(m.ids.cities, "c");
        let (_matd, cm) = qb.mat(cities, c, m.ids.city_mayor, "cm");
        let env = qb.into_env();
        assert_eq!(var_path(&env, c), "Cities");
        assert_eq!(var_path(&env, cm), "Cities.mayor");
    }

    #[test]
    fn fingerprint_is_content_addressed_and_zero_only_when_empty() {
        let mut a = StatsOverlay::new();
        assert_eq!(a.fingerprint(), 0);
        a.set("k1", 0.5);
        let mut b = StatsOverlay::new();
        b.set("k1", 0.5);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), 0);
        b.set("k1", 0.25);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn set_clamps_and_rejects_non_finite() {
        let mut o = StatsOverlay::new();
        o.set("a", f64::NAN);
        o.set("b", f64::INFINITY);
        assert!(o.is_empty());
        o.set("c", -3.0);
        o.set("d", 7.0);
        assert_eq!(o.get("c"), Some(MIN_OVERLAY_SEL));
        assert_eq!(o.get("d"), Some(1.0));
    }
}
