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
use oodb_algebra::{PhysProps, PhysicalOp};
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
        _model: &M<'e>,
        memo: &Memo<M<'e>>,
        group: GroupId,
        required: &PhysProps,
        out: &mut Vec<EnforceCandidate<M<'e>>>,
    ) {
        let Some(key) = required.order else {
            return;
        };
        if !memo.props(group).vars.contains(key.var) {
            return;
        }
        let input = PhysProps {
            in_memory: required.in_memory.insert(key.var),
            order: None,
        };
        out.push(EnforceCandidate {
            op: PhysicalOp::Sort { key },
            input_props: input,
            delivers: PhysProps {
                in_memory: input.in_memory,
                order: Some(key),
            },
        });
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
        out: &mut Vec<EnforceCandidate<M<'e>>>,
    ) {
        let scope = memo.props(group).vars;
        // A variable out of scope here has nothing to enforce; a scanned
        // one comes from a scan, not an enforcer.
        let targets = required.in_memory.iter().filter(|&v| scope.contains(v));
        let enforce = |v| {
            let input = model.mat_input(v, required.in_memory)?;
            Some(EnforceCandidate {
                op: PhysicalOp::Assembly {
                    targets: vec![v],
                    window: model.config.assembly_window,
                },
                input_props: PhysProps::in_memory(input),
                delivers: PhysProps::in_memory(input.insert(v)),
            })
        };
        out.extend(targets.filter_map(enforce));
    }
}
