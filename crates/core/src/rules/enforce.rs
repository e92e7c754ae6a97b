//! The assembly enforcer — assembly's second role.
//!
//! "In our framework, execution algorithms implement a logical operator,
//! enforce some physical property, or both. For instance, the assembly
//! algorithm is used to enforce the present-in-memory property and to
//! implement the logical materialize operator."
//!
//! Given a goal that requires a materialized component in memory which the
//! plans below cannot deliver (Query 3: the collapsed index scan delivers
//! cities only), the enforcer re-optimizes the same group *without* that
//! component and assembles it on top. Because enforcement happens after
//! the group's selections have been applied, only the surviving tuples'
//! components are assembled — the paper's three-orders-of-magnitude win.

use crate::model::OodbModel;
use oodb_algebra::{PhysProps, PhysicalOp, VarOrigin};
use volcano::{EnforceCandidate, Enforcer, GroupId, Memo};

type M<'e> = OodbModel<'e>;

/// Sort as the order enforcer (our extension beyond the 1993 prototype,
/// which had no second physical property). Sorting reads the ordering
/// attribute, so the sort variable must additionally be in memory.
pub struct SortEnforcer;

impl<'e> Enforcer<M<'e>> for SortEnforcer {
    fn name(&self) -> &'static str {
        crate::config::rule_names::SORT_ENFORCER
    }

    fn enforce(
        &self,
        model: &M<'e>,
        memo: &Memo<M<'e>>,
        group: GroupId,
        required: &PhysProps,
    ) -> Vec<EnforceCandidate<M<'e>>> {
        let Some(key) = required.order else {
            return vec![];
        };
        let props = memo.props(group);
        if !props.vars.contains(key.var) {
            return vec![];
        }
        let input = PhysProps {
            in_memory: required.in_memory.insert(key.var),
            order: None,
        };
        let op = PhysicalOp::Sort { key };
        vec![EnforceCandidate {
            cost: model.phys_cost(&op, &[*props]),
            op,
            input_props: input,
            delivers: PhysProps {
                in_memory: input.in_memory,
                order: Some(key),
            },
        }]
    }
}

/// Assembly as a present-in-memory enforcer.
pub struct AssemblyEnforcer;

impl<'e> Enforcer<M<'e>> for AssemblyEnforcer {
    fn name(&self) -> &'static str {
        crate::config::rule_names::ASSEMBLY_ENFORCER
    }

    fn enforce(
        &self,
        model: &M<'e>,
        memo: &Memo<M<'e>>,
        group: GroupId,
        required: &PhysProps,
    ) -> Vec<EnforceCandidate<M<'e>>> {
        let props = memo.props(group);
        let mut out = Vec::new();
        for v in required.in_memory.iter() {
            if !props.vars.contains(v) {
                continue; // not in scope here: nothing to enforce
            }
            let VarOrigin::Mat { src, field } = model.env.scopes.var(v).origin else {
                continue; // scanned variables come from scans, not enforcers
            };
            let mut input = required.in_memory.remove(v);
            if field.is_some() {
                input = input.insert(src);
            }
            let op = PhysicalOp::Assembly {
                targets: vec![v],
                window: model.config.assembly_window,
            };
            out.push(EnforceCandidate {
                cost: model.phys_cost(&op, &[*props]),
                op,
                input_props: PhysProps::in_memory(input),
                delivers: PhysProps::in_memory(input.insert(v)),
            });
        }
        out
    }
}
