//! Operator-level execution traces — the substance behind `EXPLAIN
//! ANALYZE`.
//!
//! An [`OpTrace`] tree mirrors a physical plan tree one-to-one: the
//! executor wraps every operator with a stopwatch and an I/O probe and
//! hands back actual row counts, wall-clock time, and buffer/disk traffic
//! per operator. Times and I/O are *cumulative* (they include the
//! operator's inputs, the way `EXPLAIN ANALYZE` conventionally reports);
//! [`OpTrace::self_elapsed_ns`] subtracts the children for per-operator
//! attribution.

/// One operator's measured execution, with its inputs as children.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpTrace {
    /// Operator description (e.g. `Index Scan Cities: c, c.mayor.name == "Joe"`).
    pub label: String,
    /// Rows (tuples) the operator produced.
    pub actual_rows: u64,
    /// Wall-clock nanoseconds, including children.
    pub elapsed_ns: u64,
    /// Buffer-pool hits charged while this subtree ran.
    pub buffer_hits: u64,
    /// Buffer-pool misses charged while this subtree ran.
    pub buffer_misses: u64,
    /// Simulated disk seconds charged while this subtree ran.
    pub sim_io_s: f64,
    /// Spill pages moved (written + re-read) while this subtree ran —
    /// nonzero only when a memory grant forced an operator to overflow.
    pub spill_pages: u64,
    /// Input operators, in plan order.
    pub children: Vec<OpTrace>,
}

impl OpTrace {
    /// Wall-clock nanoseconds spent in this operator alone.
    pub fn self_elapsed_ns(&self) -> u64 {
        self.elapsed_ns
            .saturating_sub(self.children.iter().map(|c| c.elapsed_ns).sum())
    }

    /// Every node of the tree, depth-first, root first.
    pub fn flatten(&self) -> Vec<&OpTrace> {
        let mut out = vec![self];
        for c in &self.children {
            out.extend(c.flatten());
        }
        out
    }

    /// Renders the annotated tree in the repo's figure style
    /// ([`render_tree`]), every line carrying the measured numbers.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let line = |t: &OpTrace, out: &mut String| {
            out.push_str(&t.label);
            out.push_str("  ");
            out.push_str(&t.annotation());
        };
        render_tree(&mut out, self, &line, &|t: &OpTrace| &t.children);
        out
    }

    fn annotation(&self) -> String {
        let mut s = format!(
            "(actual rows={} time={} self={} buf hit/miss={}/{} io={:.4}s",
            self.actual_rows,
            fmt_ns(self.elapsed_ns),
            fmt_ns(self.self_elapsed_ns()),
            self.buffer_hits,
            self.buffer_misses,
            self.sim_io_s,
        );
        if self.spill_pages > 0 {
            s.push_str(&format!(" spill={} pages", self.spill_pages));
        }
        s.push(')');
        s
    }
}

/// Draws a tree in the figure style plans and traces share: a node's
/// line, then a lone input stacked under a `|`, or several inputs each
/// hooked with `|-- ` (the last with `` `-- ``) and their further lines
/// padded to match.
pub fn render_tree<T>(
    out: &mut String,
    node: &T,
    line: &dyn Fn(&T, &mut String),
    children: &dyn Fn(&T) -> &[T],
) {
    line(node, out);
    out.push('\n');
    match children(node) {
        [] => {}
        [only] => {
            out.push_str("|\n");
            render_tree(out, only, line, children);
        }
        kids => {
            for (i, kid) in kids.iter().enumerate() {
                let (hook, pad) = if i + 1 == kids.len() {
                    ("`-- ", "    ")
                } else {
                    ("|-- ", "|   ")
                };
                let mut sub = String::new();
                render_tree(&mut sub, kid, line, children);
                for (j, l) in sub.lines().enumerate() {
                    out.push_str(if j == 0 { hook } else { pad });
                    out.push_str(l);
                    out.push('\n');
                }
            }
        }
    }
}

/// Human-readable nanoseconds: `412ns`, `3.2µs`, `14.7ms`, `1.203s`.
pub fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.3}s", ns as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(label: &str, rows: u64, ns: u64) -> OpTrace {
        OpTrace {
            label: label.into(),
            actual_rows: rows,
            elapsed_ns: ns,
            ..Default::default()
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = OpTrace {
            label: "Filter".into(),
            actual_rows: 10,
            elapsed_ns: 1000,
            children: vec![leaf("Scan", 100, 700)],
            ..Default::default()
        };
        assert_eq!(t.self_elapsed_ns(), 300);
        assert_eq!(t.flatten().len(), 2);
    }

    #[test]
    fn unary_chain_renders_vertically() {
        let t = OpTrace {
            label: "Filter x == 1".into(),
            actual_rows: 1,
            elapsed_ns: 10,
            children: vec![leaf("File Scan Ts: t", 9, 5)],
            ..Default::default()
        };
        let text = t.render();
        assert!(text.starts_with("Filter x == 1  (actual rows=1"), "{text}");
        assert!(
            text.contains("\n|\nFile Scan Ts: t  (actual rows=9"),
            "{text}"
        );
    }

    #[test]
    fn binary_renders_with_hooks() {
        let t = OpTrace {
            label: "Hash Join".into(),
            actual_rows: 4,
            elapsed_ns: 30,
            children: vec![leaf("L", 2, 10), leaf("R", 3, 10)],
            ..Default::default()
        };
        let text = t.render();
        assert!(text.contains("|-- L "), "{text}");
        assert!(text.contains("`-- R "), "{text}");
    }

    #[test]
    fn spill_pages_render_only_when_present() {
        let quiet = leaf("Scan", 1, 10);
        assert!(!quiet.render().contains("spill="), "{}", quiet.render());
        let spilled = OpTrace {
            label: "Hybrid Hash Join".into(),
            spill_pages: 12,
            ..Default::default()
        };
        assert!(
            spilled.render().contains("spill=12 pages"),
            "{}",
            spilled.render()
        );
    }

    #[test]
    fn fmt_ns_ranges() {
        assert_eq!(fmt_ns(412), "412ns");
        assert_eq!(fmt_ns(3_200), "3.2µs");
        assert_eq!(fmt_ns(14_700_000), "14.7ms");
        assert_eq!(fmt_ns(1_203_000_000), "1.203s");
    }
}
