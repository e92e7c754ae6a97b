//! Canonical query fingerprints for plan caching.
//!
//! A fingerprint normalizes a simplified [`LogicalPlan`] into a stable
//! structural key (and a 64-bit hash of it) so that *textual variants of
//! the same query collide*: variable names, interning order of predicates,
//! the order of terms inside a conjunction, and the spelling of symmetric
//! comparisons are all erased. Two queries with equal fingerprints are
//! optimizer-equivalent — the same winning plan (modulo variable identity)
//! is valid for both.
//!
//! Normalizations applied:
//!
//! * **Variable canonicalization** — user-chosen names and `VarId`
//!   interning order are replaced by `$0, $1, ...` assigned in a
//!   deterministic pre-order walk of the plan (each `Get`/`Mat`/`Unnest`
//!   numbers the variable it introduces). `SELECT c FROM City c ...` and
//!   `SELECT x FROM City x ...` collide.
//! * **Conjunct ordering** — the terms of each conjunctive predicate are
//!   rendered individually and sorted, so `a == 1 AND b == 2` collides
//!   with `b == 2 AND a == 1`.
//! * **Symmetric-comparison ordering** — `Eq`/`Ne` operands are sorted
//!   lexicographically, and `Gt`/`Ge` are flipped to `Lt`/`Le`, so
//!   `1 == a.x` collides with `a.x == 1` and `a.x > 1` with `1 < a.x`.
//! * **Name-based encoding** — collections and fields appear by *name*
//!   (schema/catalog interning order is irrelevant), so fingerprints are
//!   stable across catalog rebuilds.
//!
//! Join child order is deliberately **not** canonicalized: a false cache
//! miss merely re-optimizes, while a false hit would serve a wrong plan,
//! so only rewrites that are provably identity-preserving are applied.

use crate::ops::LogicalOp;
use crate::plan::LogicalPlan;
use crate::pred::{CmpOp, Operand, PredId, Term};
use crate::props::{SortSpec, VarSet};
use crate::scope::{VarId, VarOrigin};
use crate::QueryEnv;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::ops::Range;

/// A canonical fingerprint: a stable 64-bit hash plus the structural key
/// it was computed from. Cache lookups compare the full key on a hash
/// match, so hash collisions cost a miss, never a wrong plan.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct QueryFingerprint {
    /// FNV-1a hash of [`QueryFingerprint::key`].
    pub hash: u64,
    /// The canonical structural encoding of the query.
    pub key: String,
}

/// Computes the canonical fingerprint of a simplified query: the plan
/// plus everything else that determines the winning physical plan — the
/// result variables and the requested output order.
pub fn fingerprint(
    env: &QueryEnv,
    plan: &LogicalPlan,
    result_vars: VarSet,
    order: Option<&SortSpec>,
) -> QueryFingerprint {
    let mut cx = Canonicalizer {
        env,
        canon: HashMap::new(),
        // One output buffer for the whole key; per-node allocation is the
        // dominant cost of fingerprinting on the cache-hit fast path.
        out: String::with_capacity(192),
    };
    // Number variables from the plan *structure* (introduction sites,
    // children first) before any predicate is rendered. Numbering by
    // first textual mention would let conjunct order leak into the
    // numbers and defeat the term sort below.
    cx.assign_vars(plan);
    cx.encode_plan(plan);
    cx.out.push_str("|vars[");
    let mut nums: Vec<usize> = result_vars
        .iter()
        .map(|v| var_num(&mut cx.canon, v))
        .collect();
    nums.sort_unstable();
    for (i, n) in nums.iter().enumerate() {
        if i > 0 {
            cx.out.push(',');
        }
        let _ = write!(cx.out, "${n}");
    }
    cx.out.push(']');
    if let Some(s) = order {
        let n = var_num(&mut cx.canon, s.var);
        let _ = write!(cx.out, "|order(${n}.{})", cx.env.schema.field(s.field).name);
    }
    let key = cx.out;
    QueryFingerprint {
        hash: fnv1a(key.as_bytes()),
        key,
    }
}

/// FNV-1a over a byte string — deterministic across processes and builds,
/// unlike `std`'s `DefaultHasher` which is only stable within one process.
pub use oodb_object::fnv::fnv1a;

/// Writes the canonical key of a conjunction to `out`: operands tagged
/// `c:`/`a:`/`o:`/`r:`/`v:`, symmetric comparisons operand-sorted,
/// `>`/`>=` rewritten as `<`/`<=`, and the terms sorted and `&`-joined.
/// `var` writes a variable's name — `$n` in a fingerprint, the origin path
/// in an overlay key ([`crate::overlay::pred_key`]) — which is all the two
/// keys differ in.
pub(crate) fn push_terms_key(
    env: &QueryEnv,
    terms: &[Term],
    out: &mut String,
    mut var: impl FnMut(VarId, &mut String),
) {
    // Every operand goes to one scratch buffer and a term is three spans
    // of it, so sorting the terms allocates nothing per term.
    let mut buf = String::with_capacity(64);
    let mut spans = Vec::with_capacity(terms.len());
    for t in terms {
        let start = buf.len();
        push_operand(env, &t.left, &mut buf, &mut var);
        let mid = buf.len();
        push_operand(env, &t.right, &mut buf, &mut var);
        let (left, right) = (start..mid, mid..buf.len());
        spans.push(match t.op {
            CmpOp::Eq | CmpOp::Ne if buf[left.clone()] > buf[right.clone()] => {
                (right, t.op.symbol(), left)
            }
            CmpOp::Gt | CmpOp::Ge => (right, t.op.flipped().symbol(), left),
            _ => (left, t.op.symbol(), right),
        });
    }
    let text = |(l, op, r): &(Range<usize>, &'static str, Range<usize>)| {
        let (l, r) = (&buf[l.clone()], &buf[r.clone()]);
        l.bytes().chain(op.bytes()).chain(r.bytes())
    };
    spans.sort_unstable_by(|a, b| text(a).cmp(text(b)));
    for (i, (l, op, r)) in spans.iter().enumerate() {
        if i > 0 {
            out.push('&');
        }
        out.push_str(&buf[l.clone()]);
        out.push_str(op);
        out.push_str(&buf[r.clone()]);
    }
}

fn push_operand(
    env: &QueryEnv,
    o: &Operand,
    out: &mut String,
    var: &mut impl FnMut(VarId, &mut String),
) {
    let (tag, v, field) = match o {
        Operand::Const(c) => {
            let _ = write!(out, "c:{c:?}");
            return;
        }
        Operand::Attr { var, field } => ("a:", var, Some(field)),
        Operand::RefField { var, field } => ("r:", var, Some(field)),
        Operand::VarOid(v) => ("o:", v, None),
        Operand::VarRef(v) => ("v:", v, None),
    };
    out.push_str(tag);
    var(*v, out);
    if let Some(f) = field {
        out.push('.');
        // Field *names*, not ids: stable across schema re-interning.
        out.push_str(&env.schema.field(*f).name);
    }
}

/// Canonical number of `v` (assigned by `Canonicalizer::assign_vars`;
/// the assign-on-miss fallback only fires for variables a plan references
/// without introducing, which well-formed plans do not do).
fn var_num(canon: &mut HashMap<VarId, usize>, v: VarId) -> usize {
    let next = canon.len();
    *canon.entry(v).or_insert(next)
}

/// Writes `$n` for `v`'s canonical number.
fn push_num(canon: &mut HashMap<VarId, usize>, v: VarId, out: &mut String) {
    let _ = write!(out, "${}", var_num(canon, v));
}

struct Canonicalizer<'e> {
    env: &'e QueryEnv,
    canon: HashMap<VarId, usize>,
    out: String,
}

impl Canonicalizer<'_> {
    /// Numbers every variable the plan introduces, children before
    /// parents, so numberings depend only on plan shape — never on
    /// `VarId` interning order, user-chosen names, or the order in which
    /// predicates happen to mention variables.
    fn assign_vars(&mut self, plan: &LogicalPlan) {
        for c in &plan.children {
            self.assign_vars(c);
        }
        match &plan.op {
            LogicalOp::Get { var, .. } => {
                var_num(&mut self.canon, *var);
            }
            LogicalOp::Mat { out } | LogicalOp::Unnest { out } => {
                var_num(&mut self.canon, *out);
            }
            LogicalOp::Select { .. }
            | LogicalOp::Project { .. }
            | LogicalOp::Join { .. }
            | LogicalOp::SetOp { .. } => {}
        }
    }

    fn push_var(&mut self, v: VarId) {
        push_num(&mut self.canon, v, &mut self.out);
    }

    fn push_pred(&mut self, pred: PredId) {
        let Canonicalizer { env, canon, out } = self;
        let terms = &env.preds.pred(pred).terms;
        push_terms_key(env, terms, out, |v, out| push_num(canon, v, out));
    }

    /// Streams `node[child;child]` into the shared buffer. Each node
    /// numbers the variables it mentions as they appear; children follow
    /// in order (never reordered — see the module doc on joins).
    fn encode_plan(&mut self, plan: &LogicalPlan) {
        match &plan.op {
            LogicalOp::Get { coll, var } => {
                self.out.push_str("get(");
                let name = &self.env.catalog.collection(*coll).name;
                self.out.push_str(name);
                self.out.push(',');
                self.push_var(*var);
                self.out.push(')');
            }
            LogicalOp::Select { pred } => {
                self.out.push_str("sel(");
                self.push_pred(*pred);
                self.out.push(')');
            }
            LogicalOp::Project { items } => {
                self.out.push_str("proj(");
                let Canonicalizer { env, canon, out } = self;
                for (i, o) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_operand(env, o, out, &mut |v, out| push_num(canon, v, out));
                }
                self.out.push(')');
            }
            LogicalOp::Join { pred } => {
                self.out.push_str("join(");
                self.push_pred(*pred);
                self.out.push(')');
            }
            LogicalOp::Mat { out } | LogicalOp::Unnest { out } => {
                let unnest = matches!(plan.op, LogicalOp::Unnest { .. });
                self.out.push_str(if unnest { "unnest(" } else { "mat(" });
                // The origin the variable carries, whatever it is: a
                // hand-built plan may bind any variable here.
                let (src, field) = match self.env.scopes.var(*out).origin {
                    VarOrigin::Get(coll) => {
                        let name = &self.env.catalog.collection(coll).name;
                        self.out.push_str(name);
                        (None, None)
                    }
                    VarOrigin::Mat { src, field } => (Some(src), field),
                    VarOrigin::Unnest { src, field } => (Some(src), Some(field)),
                };
                if let Some(src) = src {
                    self.push_var(src);
                }
                if let Some(f) = field {
                    self.out.push('.');
                    self.out.push_str(&self.env.schema.field(f).name);
                }
                self.out.push(',');
                self.push_var(*out);
                self.out.push(')');
            }
            LogicalOp::SetOp { kind } => {
                let _ = write!(self.out, "setop({kind:?})");
            }
        }
        if !plan.children.is_empty() {
            self.out.push('[');
            for (i, c) in plan.children.iter().enumerate() {
                if i > 0 {
                    self.out.push(';');
                }
                self.encode_plan(c);
            }
            self.out.push(']');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryBuilder;
    use oodb_object::paper::paper_model;
    use oodb_object::Value;

    fn fp_of(src_like: impl FnOnce(&mut QueryBuilder) -> (LogicalPlan, VarId)) -> QueryFingerprint {
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (plan, v) = src_like(&mut qb);
        let env = qb.into_env();
        fingerprint(&env, &plan, VarSet::single(v), None)
    }

    #[test]
    fn variable_names_are_erased() {
        let m = paper_model();
        let a = fp_of(|qb| {
            let (cities, c) = qb.get(m.ids.cities, "c");
            let pred = qb.eq_const(c, m.ids.city_population, Value::Int(1000));
            (qb.select(cities, pred), c)
        });
        let b = fp_of(|qb| {
            let (cities, x) = qb.get(m.ids.cities, "some_city");
            let pred = qb.eq_const(x, m.ids.city_population, Value::Int(1000));
            (qb.select(cities, pred), x)
        });
        assert_eq!(a, b, "renamed variable must not change the fingerprint");
    }

    #[test]
    fn conjunct_order_is_erased() {
        let m = paper_model();
        let mk = |flip: bool| {
            fp_of(|qb| {
                let (tasks, t) = qb.get(m.ids.tasks, "t");
                let t1 = qb.term(
                    Operand::Attr {
                        var: t,
                        field: m.ids.task_time,
                    },
                    CmpOp::Eq,
                    Operand::Const(Value::Int(100)),
                );
                let t2 = qb.term(
                    Operand::Attr {
                        var: t,
                        field: m.ids.task_time,
                    },
                    CmpOp::Lt,
                    Operand::Const(Value::Int(900)),
                );
                let pred = if flip {
                    qb.conj(vec![t2.clone(), t1.clone()])
                } else {
                    qb.conj(vec![t1, t2])
                };
                (qb.select(tasks, pred), t)
            })
        };
        assert_eq!(mk(false), mk(true));
    }

    #[test]
    fn symmetric_and_flipped_comparisons_collide() {
        let m = paper_model();
        let attr = |t| Operand::Attr {
            var: t,
            field: m.ids.task_time,
        };
        let c100 = Operand::Const(Value::Int(100));
        let eq_ab = fp_of(|qb| {
            let (tasks, t) = qb.get(m.ids.tasks, "t");
            let term = qb.term(attr(t), CmpOp::Eq, c100.clone());
            let pred = qb.conj(vec![term]);
            (qb.select(tasks, pred), t)
        });
        let eq_ba = fp_of(|qb| {
            let (tasks, t) = qb.get(m.ids.tasks, "t");
            let term = qb.term(c100.clone(), CmpOp::Eq, attr(t));
            let pred = qb.conj(vec![term]);
            (qb.select(tasks, pred), t)
        });
        assert_eq!(eq_ab, eq_ba, "Eq operand order must not matter");

        let gt = fp_of(|qb| {
            let (tasks, t) = qb.get(m.ids.tasks, "t");
            let term = qb.term(attr(t), CmpOp::Gt, c100.clone());
            let pred = qb.conj(vec![term]);
            (qb.select(tasks, pred), t)
        });
        let lt_flipped = fp_of(|qb| {
            let (tasks, t) = qb.get(m.ids.tasks, "t");
            let term = qb.term(c100.clone(), CmpOp::Lt, attr(t));
            let pred = qb.conj(vec![term]);
            (qb.select(tasks, pred), t)
        });
        assert_eq!(gt, lt_flipped, "x > c must collide with c < x");
    }

    #[test]
    fn conjunct_order_is_erased_across_variables() {
        // Terms over *different* variables: numbering must come from the
        // plan structure, not from whichever term mentions a variable
        // first, or reordering the conjunction would change the key.
        let m = paper_model();
        let mk = |flip: bool| {
            fp_of(|qb| {
                let (cities, c) = qb.get(m.ids.cities, "c");
                let (emps, e) = qb.get(m.ids.employees, "e");
                let t1 = qb.term(
                    Operand::Attr {
                        var: c,
                        field: m.ids.city_population,
                    },
                    CmpOp::Eq,
                    Operand::Const(Value::Int(5)),
                );
                let t2 = qb.term(
                    Operand::Attr {
                        var: e,
                        field: m.ids.person_name,
                    },
                    CmpOp::Eq,
                    Operand::Const(Value::str("Fred")),
                );
                let pred = if flip {
                    qb.conj(vec![t2.clone(), t1.clone()])
                } else {
                    qb.conj(vec![t1, t2])
                };
                let join = LogicalPlan::binary(LogicalOp::Join { pred }, cities, emps);
                (join, c)
            })
        };
        assert_eq!(mk(false), mk(true));
    }

    #[test]
    fn different_constants_do_not_collide() {
        let m = paper_model();
        let mk = |n: i64| {
            fp_of(|qb| {
                let (tasks, t) = qb.get(m.ids.tasks, "t");
                let term = qb.term(
                    Operand::Attr {
                        var: t,
                        field: m.ids.task_time,
                    },
                    CmpOp::Eq,
                    Operand::Const(Value::Int(n)),
                );
                let pred = qb.conj(vec![term]);
                (qb.select(tasks, pred), t)
            })
        };
        assert_ne!(mk(100), mk(200));
    }

    #[test]
    fn order_by_is_part_of_the_fingerprint() {
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (cities, c) = qb.get(m.ids.cities, "c");
        let env = qb.into_env();
        let plain = fingerprint(&env, &cities, VarSet::single(c), None);
        let ordered = fingerprint(
            &env,
            &cities,
            VarSet::single(c),
            Some(&SortSpec {
                var: c,
                field: m.ids.city_population,
            }),
        );
        assert_ne!(plain, ordered);
    }

    #[test]
    fn a_mat_binding_a_scanned_variable_still_fingerprints() {
        // `fingerprint` takes any plan: a hand-built `Mat` may bind a
        // variable whose origin is a `Get`, and the key renders that origin.
        let m = paper_model();
        let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
        let (cities, c) = qb.get(m.ids.cities, "c");
        let plan = LogicalPlan::unary(LogicalOp::Mat { out: c }, cities);
        let env = qb.into_env();
        let fp = fingerprint(&env, &plan, VarSet::single(c), None);
        assert_eq!(fp.key, "mat(Cities,$0)[get(Cities,$0)]|vars[$0]");
    }

    #[test]
    fn join_child_order_is_preserved() {
        // Join commutativity is a transformation the *optimizer* explores;
        // the fingerprint must not equate the two orders (a wrong cache
        // hit would be unsound if it ever mattered, a miss never is).
        let m = paper_model();
        let mk = |swap: bool| {
            fp_of(|qb| {
                let (cities, c) = qb.get(m.ids.cities, "c");
                let (emps, e) = qb.get(m.ids.employees, "e");
                let term = qb.term(
                    Operand::RefField {
                        var: c,
                        field: m.ids.city_mayor,
                    },
                    CmpOp::Eq,
                    Operand::VarOid(e),
                );
                let pred = qb.conj(vec![term]);
                let (l, r) = if swap { (emps, cities) } else { (cities, emps) };
                (LogicalPlan::binary(LogicalOp::Join { pred }, l, r), c)
            })
        };
        assert_ne!(mk(false), mk(true));
    }
}
