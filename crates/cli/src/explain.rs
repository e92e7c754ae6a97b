//! The `EXPLAIN` family and `\trace`: statements that compile a query
//! and show what the optimizer makes of it instead of running it.

use crate::Shell;
use oodb_algebra::display::{render_logical, render_physical};
use oodb_algebra::LogicalOp;
use oodb_core::{greedy_plan, EnumLimits, OpenOodb};

/// Renders one verifier diagnostic the same way everywhere — check name,
/// operator path ([`Diagnostic::path_string`]), operator, then the
/// expected/actual pair — whether it came from the logical linter, the
/// winning-plan verifier, or the plan-space auditor.
///
/// [`Diagnostic::path_string`]: oodb_core::verify::Diagnostic::path_string
fn print_diag(d: &oodb_core::verify::Diagnostic) {
    println!(
        "  [{}] at {} ({})\n      expected {}\n      got      {}",
        d.check,
        d.path_string(),
        d.op,
        d.expected,
        d.actual
    );
}

impl Shell {
    /// The one compile-and-search path of `EXPLAIN` and `\trace`: runs
    /// `run` on `src` with the optimizer a cache miss would build
    /// ([`oodb_service::QueryService::miss_search`]). A front-end rejection
    /// is printed and yields `None`; `run` finding no plan is printed too,
    /// and still hands back the query.
    fn search<T>(
        &self,
        src: &str,
        verify: bool,
        run: impl FnOnce(&zql::SimplifiedQuery, &OpenOodb<'_>) -> Option<T>,
    ) -> Option<(zql::SimplifiedQuery, Option<T>)> {
        let compiled = self.svc.miss_search(src, verify, run);
        let (q, found) = compiled.map_err(|e| println!("{e}")).ok()?;
        if found.is_none() {
            println!("no feasible plan under the current rule configuration");
        }
        Some((q, found))
    }

    /// `EXPLAIN VERIFY`: statically verifies a query's winning plan and
    /// every memo expression (`verify_search`): lints the logical algebra,
    /// optimizes, and reports every diagnostic — or a clean bill.
    pub(crate) fn verify_stmt(&self, src: &str) {
        let Some((q, searched)) = self.search(src, true, |q, optimizer| {
            optimizer.optimize_ordered(&q.plan, q.result_vars, q.order)
        }) else {
            return;
        };
        let mut diags = oodb_core::verify::lint_logical(&q.env, &q.plan);
        let searched = searched.map(|out| {
            diags.extend(out.diagnostics);
            (out.stats.exprs, out.cost.total())
        });
        self.svc.count_findings(&diags);
        for d in &diags {
            print_diag(d);
        }
        if let Some((exprs, cost)) = searched {
            if diags.is_empty() {
                println!(
                    "verify: OK — 0 diagnostics across the winning plan and \
                     {exprs} memo expressions (estimated {cost:.3} s)"
                );
            } else {
                println!("verify: {} diagnostic(s)", diags.len());
            }
        }
    }

    /// `EXPLAIN AUDIT`: the plan-space auditor on one query — rule-graph
    /// termination proof, exhaustive enumeration with the winner checked
    /// for cost-minimality over the whole space, and the interval
    /// cardinality audit across every enumerated plan.
    pub(crate) fn audit_stmt(&self, src: &str) {
        let Some((q, Some(report))) = self.search(src, false, |q, optimizer| {
            match optimizer.prove_rules_terminate() {
                Ok(p) => println!(
                    "rule graph: {} rules, {} enablement edges, {} in memo-cut \
                     cycles — termination proven",
                    p.rules, p.edges, p.cyclic_rules
                ),
                Err(w) => println!("rule graph: TERMINATION UNPROVEN — {w}"),
            }
            optimizer.audit(&q.plan, q.result_vars, q.order, EnumLimits::default())
        }) else {
            return;
        };
        if report.truncated {
            println!(
                "{} plan(s), over the enumeration bound: none built — verdict void",
                report.plan_count
            );
        } else {
            println!(
                "enumerated {} plan(s); winner estimated {:.6} s, space minimum {:.6} s",
                report.plan_count, report.winner_cost, report.best_cost
            );
        }
        println!("{}", render_physical(&q.env, &report.winner));
        if report.cost_minimal {
            println!("audit: winner is cost-minimal over the enumerated space");
        } else {
            println!("audit: WINNER NOT PROVEN MINIMAL over the enumerated space");
        }
        if report.interval_diags.is_empty() {
            println!("intervals: every estimate inside its sound [lo, hi] bounds");
        } else {
            println!(
                "intervals: {} estimate(s) escaped their bounds",
                report.interval_diags.len()
            );
            for d in &report.interval_diags {
                print_diag(d);
            }
        }
    }

    /// `EXPLAIN FEEDBACK`: what the drift detector knows about one query —
    /// each predicate's catalog selectivity next to any feedback override,
    /// then the accumulated actual-vs-estimated record. It searches for no
    /// plan: the optimizer only lends its model's selectivities.
    pub(crate) fn feedback_stmt(&self, src: &str) {
        let Some((q, Some(preds))) = self.search(src, false, |q, optimizer| {
            let model = optimizer.model();
            let preds = q.plan.iter_ops().into_iter().filter_map(|op| match op {
                LogicalOp::Select { pred } | LogicalOp::Join { pred } => {
                    let key = oodb_algebra::overlay::pred_key(&q.env, q.env.preds.pred(*pred));
                    let catalog = model.catalog_selectivity(*pred);
                    let corrected = model.overlay().and_then(|o| o.get(&key));
                    let corrected = corrected.map(|c| format!(" -> corrected {c:.6}"));
                    Some(format!(
                        "  {key}: catalog {catalog:.6}{}",
                        corrected.unwrap_or_default()
                    ))
                }
                _ => None,
            });
            Some(preds.collect::<Vec<_>>())
        }) else {
            return;
        };
        if preds.is_empty() {
            println!("no predicates: nothing for the feedback loop to correct");
        }
        for line in preds {
            println!("{line}");
        }
        let fp = oodb_algebra::fingerprint(&q.env, &q.plan, q.result_vars, q.order.as_ref());
        match self
            .svc
            .feedback_snapshot()
            .into_iter()
            .find(|e| e.fingerprint == fp.hash)
        {
            Some(e) => println!(
                "feedback: {} execution(s), last estimated {:.0} vs actual {}, \
                 worst drift {:.1}x{}{}",
                e.execs,
                e.last_est,
                e.last_actual,
                e.worst_drift,
                if e.suspect { ", SUSPECT" } else { "" },
                if e.overrides > 0 {
                    format!(", {} override(s) active", e.overrides)
                } else {
                    String::new()
                }
            ),
            None => println!("feedback: no executions recorded for this query"),
        }
    }

    /// `\trace`: the goal-level search trace for a query (the paper's
    /// Figure 11 view, live).
    pub(crate) fn trace(&self, src: &str) {
        let Some((_, Some((out, lines)))) = self.search(src, false, |q, optimizer| {
            optimizer.optimize_traced(&q.plan, q.result_vars, q.order)
        }) else {
            return;
        };
        for l in &lines {
            println!("  {l}");
        }
        println!("winner estimated at {:.3} s", out.cost.total());
    }

    /// Bare `EXPLAIN` always optimizes fresh: it exists to show the search.
    pub(crate) fn explain(&self, src: &str) {
        let Some((q, Some((out, greedy)))) = self.search(src, false, |q, optimizer| {
            let out = optimizer.optimize_ordered(&q.plan, q.result_vars, q.order)?;
            Some((out, greedy_plan(optimizer.model(), &q.plan)))
        }) else {
            return;
        };
        println!("Logical algebra:");
        println!("{}", render_logical(&q.env, &q.plan));
        println!(
            "Optimal plan (estimated {:.3} s, {} groups, {} exprs, {:?}, {:?} of it exploring):",
            out.cost.total(),
            out.stats.groups,
            out.stats.exprs,
            out.stats.elapsed,
            out.stats.explore_elapsed
        );
        println!("{}", render_physical(&q.env, &out.plan));
        if let Some(g) = greedy {
            println!(
                "Greedy (ObjectStore-style) plan ({:.3} s):",
                g.total_io_s() + g.total_cpu_s()
            );
            println!("{}", render_physical(&q.env, &g));
        }
    }
}
