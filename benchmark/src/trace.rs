//! Spans recorded from outside the program: one per call the harness
//! makes into a layer's public functions. Spans stay in memory while the
//! run measures and are written out once it has finished.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. `parent` is 0 for a span nobody caused; spans of one
/// operation share `request`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Divides the duration by `slowdown` (the start stays where it was).
    pub fn rescale(&mut self, slowdown: f64) {
        self.end_ns = self.start_ns + (self.duration_ns() as f64 / slowdown).round() as u64;
    }
}

/// A handle to a span that has begun and not yet ended.
#[derive(Clone, Copy)]
pub struct Open {
    index: usize,
    pub id: u64,
}

/// One thread's span recorder. Ids are `id_base + n`, so recorders given
/// disjoint bases can be merged without renumbering.
pub struct Tracer {
    epoch: Instant,
    id_base: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, id_base: u64) -> Self {
        Tracer {
            epoch,
            id_base,
            spans: Vec::new(),
        }
    }

    pub fn id_base(&self) -> u64 {
        self.id_base
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: u64, request: u64) -> Open {
        let index = self.spans.len();
        let id = self.id_base + index as u64 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        Open { index, id }
    }

    /// Ends the span and returns its duration.
    pub fn end(&mut self, open: Open) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[open.index];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    /// Times one call as a span.
    pub fn call<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let open = self.begin(name, parent, request);
        let result = f();
        (result, self.end(open))
    }

    /// Records a call that was timed elsewhere.
    pub fn record(&mut self, name: &'static str, started: Instant, duration_ns: u64) {
        let open = self.begin(name, 0, 0);
        let span = &mut self.spans[open.index];
        span.start_ns = started.saturating_duration_since(self.epoch).as_nanos() as u64;
        span.end_ns = span.start_ns + duration_ns;
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Durations of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// One JSON object per line: `id, parent, request, name, start_ns, end_ns`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_by_name_and_jsonl_lines() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                request: 9,
                name: "outer",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: 1,
                request: 9,
                name: "inner",
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                id: 3,
                parent: 1,
                request: 9,
                name: "inner",
                start_ns: 50,
                end_ns: 90,
            },
        ];
        assert_eq!(durations(&spans, "inner"), vec![30, 40]);
        let jsonl = to_jsonl(&spans);
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.starts_with(
            "{\"id\":1,\"parent\":0,\"request\":9,\"name\":\"outer\",\"start_ns\":0,\"end_ns\":100}"
        ));
    }

    #[test]
    fn tracer_nests_and_numbers_from_its_base() {
        let mut tr = Tracer::new(Instant::now(), 1000);
        let outer = tr.begin("outer", 0, 1);
        let ((), inner_ns) = tr.call("inner", outer.id, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer_ns = tr.end(outer);
        assert!(inner_ns >= 2_000_000 && outer_ns >= inner_ns);
        let spans = tr.into_spans();
        assert_eq!(
            (spans[0].id, spans[1].id, spans[1].parent),
            (1001, 1002, 1001)
        );
    }
}
