//! The metrics registry: counters, gauges, fixed-bucket histograms.
//!
//! Hot-path cost model:
//!
//! * counter/gauge update — one relaxed atomic RMW, always on;
//! * histogram observation — a bucket index from the leading-zero count
//!   plus three relaxed RMWs, always on;
//! * registration — copy-on-write: a *new* key pays one writer-mutex
//!   acquisition and a map clone; re-registering an existing key (the
//!   respawned-worker path) is a lock-free snapshot probe. Neither is on
//!   the per-query path (callers cache handles).
//!
//! Buckets are fixed powers of two in nanoseconds so every process buckets
//! identically: reports from different runs (or different worker counts)
//! merge by summing counts, and a bucket count means the same thing in
//! every report.

use oodb_sync::Snap;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of finite histogram buckets.
pub const BUCKET_COUNT: usize = 27;

/// Upper bounds (inclusive) of the finite buckets, in nanoseconds:
/// 256 ns, 512 ns, … doubling up to ~17 s. Observations above the last
/// bound land in an overflow (`+Inf`) bucket.
pub const BUCKET_BOUNDS_NS: [u64; BUCKET_COUNT] = {
    let mut bounds = [0u64; BUCKET_COUNT];
    let mut i = 0;
    while i < BUCKET_COUNT {
        bounds[i] = 256u64 << i;
        i += 1;
    }
    bounds
};

/// A monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A detached counter (not in any registry).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sets the absolute value. For mirroring a monotone counter that is
    /// maintained elsewhere (e.g. the plan cache's own hit/miss cells)
    /// into the registry at export time.
    pub fn store(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that goes up and down (queue depths, residency).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A detached gauge (not in any registry).
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Subtracts `d`.
    pub fn sub(&self, d: i64) {
        self.0.fetch_sub(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Finite buckets plus one overflow bucket.
    counts: [AtomicU64; BUCKET_COUNT + 1],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket latency histogram. Cloning shares the underlying cells.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Index of the bucket an observation falls in (overflow = `BUCKET_COUNT`).
fn bucket_index(ns: u64) -> usize {
    // Inclusive upper bounds: bounds[i] = 256 << i, so the bucket is the
    // number of doublings needed past 256.
    if ns <= BUCKET_BOUNDS_NS[0] {
        return 0;
    }
    // Boundary determinism: an exact power of two is its own inclusive
    // bound — 256 << k lands in bucket k, never the next one up. Handled
    // as its own case so the property holds by construction rather than
    // through `ns - 1` borrow arithmetic.
    let log2 = if ns.is_power_of_two() {
        ns.trailing_zeros() as usize
    } else {
        // Non-powers round up: bucket = ceil(log2(ns)) - 8.
        64 - ns.leading_zeros() as usize
    };
    log2.saturating_sub(8).min(BUCKET_COUNT)
}

impl Histogram {
    /// A detached histogram (not in any registry).
    pub fn new() -> Self {
        Histogram(Arc::new(HistogramCore {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }))
    }

    /// Records one observation in nanoseconds.
    pub fn record(&self, ns: u64) {
        self.0.counts[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.0.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.0.sum_ns.load(Ordering::Relaxed)
    }

    /// A consistent point-in-time copy of the cells.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .0
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum_ns: self.sum_ns(),
            count: self.count(),
        }
    }
}

/// A point-in-time copy of one histogram's cells.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (finite buckets then overflow).
    pub counts: Vec<u64>,
    /// Sum of observations in nanoseconds.
    pub sum_ns: u64,
    /// Total observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Observations accumulated since `base` was captured: subtracts the
    /// older snapshot cell-wise, windowing a cumulative histogram to one
    /// measured interval (the fixed buckets make this exact).
    pub fn delta(&self, base: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .counts
                .iter()
                .zip(base.counts.iter())
                .map(|(a, b)| a - b)
                .collect(),
            sum_ns: self.sum_ns - base.sum_ns,
            count: self.count - base.count,
        }
    }
}

/// A stage stopwatch: `lap()` yields nanoseconds since the previous lap,
/// so one timer splits a pipeline into consecutive stage latencies.
#[derive(Debug)]
pub struct StageTimer {
    last: Instant,
}

impl Default for StageTimer {
    fn default() -> Self {
        StageTimer::start()
    }
}

impl StageTimer {
    /// Starts timing.
    pub fn start() -> Self {
        StageTimer {
            last: Instant::now(),
        }
    }

    /// Nanoseconds since the previous lap (or start), then resets.
    pub fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let ns = now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        ns
    }

    /// Laps and records the split into `hist`. Returns the split.
    pub fn lap_into(&mut self, hist: &Histogram) -> u64 {
        let ns = self.lap();
        hist.record(ns);
        ns
    }
}

/// A metric's identity: name plus sorted label pairs.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    /// Metric name (Prometheus conventions: `snake_case`, unit suffix).
    pub name: String,
    /// Label pairs, sorted by label name.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }

    /// `{k="v",…}` or the empty string.
    fn label_suffix(&self, extra: Option<(&str, &str)>) -> String {
        let mut pairs: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
            .collect();
        if let Some((k, v)) = extra {
            pairs.push(format!("{k}=\"{}\"", escape_label(v)));
        }
        if pairs.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", pairs.join(","))
        }
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Appends `s` as a JSON string (surrounding quotes included) to `out`.
/// The workspace's one JSON string escaper: the server's wire codec
/// writes through it.
pub fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Everything that needs escaping is one ASCII byte, so the stretches
    // between such bytes are whole characters and are copied as they are.
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[clean..i]);
        clean = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[clean..]);
    out.push('"');
}

#[derive(Clone, Debug)]
enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histogram(_) => "histogram",
        }
    }
}

/// The registry: get-or-create handles by `(name, labels)`, render the
/// whole population as Prometheus text or JSON. Cheap to share behind an
/// `Arc`. The population lives in a copy-on-write snapshot ([`Snap`]):
/// looking up an existing handle and rendering are lock-free snapshot
/// reads; only registering a genuinely *new* key takes the writer mutex
/// and pays an O(population) map clone — rare, bounded, and never on
/// the per-query path.
#[derive(Debug)]
pub struct MetricsRegistry {
    metrics: Snap<BTreeMap<MetricKey, Slot>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            metrics: Snap::new(BTreeMap::new()),
        }
    }

    /// Get-or-create machinery shared by the three handle kinds: probe
    /// the current snapshot lock-free; only on a miss, publish a new
    /// snapshot with the key inserted (re-checking under the writer
    /// lock so concurrent registrations of one key agree on a handle).
    fn slot(&self, key: MetricKey, make: impl FnOnce() -> Slot) -> Slot {
        if let Some(slot) = self.metrics.load().get(&key) {
            return slot.clone();
        }
        self.metrics.update(|map| {
            if let Some(slot) = map.get(&key) {
                return (map.clone(), slot.clone());
            }
            let slot = make();
            let mut next = map.clone();
            next.insert(key, slot.clone());
            (next, slot)
        })
    }

    /// Gets or creates a counter. Panics if the key exists as another kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.slot(MetricKey::new(name, labels), || {
            Slot::Counter(Counter::new())
        }) {
            Slot::Counter(c) => c,
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    /// Gets or creates a gauge. Panics if the key exists as another kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.slot(MetricKey::new(name, labels), || Slot::Gauge(Gauge::new())) {
            Slot::Gauge(g) => g,
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    /// Gets or creates a histogram. Panics if the key exists as another
    /// kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.slot(MetricKey::new(name, labels), || {
            Slot::Histogram(Histogram::new())
        }) {
            Slot::Histogram(h) => h,
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    /// Renders every metric in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let metrics = self.metrics.load();
        let mut out = String::new();
        let mut last_typed: Option<(String, &'static str)> = None;
        for (key, slot) in metrics.iter() {
            let needs_type = last_typed
                .as_ref()
                .map(|(n, _)| n != &key.name)
                .unwrap_or(true);
            if needs_type {
                let _ = writeln!(out, "# TYPE {} {}", key.name, slot.kind());
                last_typed = Some((key.name.clone(), slot.kind()));
            }
            match slot {
                Slot::Counter(c) => {
                    let _ = writeln!(out, "{}{} {}", key.name, key.label_suffix(None), c.get());
                }
                Slot::Gauge(g) => {
                    let _ = writeln!(out, "{}{} {}", key.name, key.label_suffix(None), g.get());
                }
                Slot::Histogram(h) => {
                    let snap = h.snapshot();
                    let mut cum = 0u64;
                    for (i, c) in snap.counts.iter().enumerate() {
                        cum += c;
                        let le = if i < BUCKET_COUNT {
                            BUCKET_BOUNDS_NS[i].to_string()
                        } else {
                            "+Inf".to_string()
                        };
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            key.name,
                            key.label_suffix(Some(("le", &le))),
                            cum
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        key.name,
                        key.label_suffix(None),
                        snap.sum_ns
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        key.name,
                        key.label_suffix(None),
                        snap.count
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_bounds() {
        // Every bound must land in its own bucket; bound+1 in the next.
        for (i, &b) in BUCKET_BOUNDS_NS.iter().enumerate() {
            assert_eq!(bucket_index(b), i, "bound {b}");
            assert_eq!(bucket_index(b + 1), (i + 1).min(BUCKET_COUNT));
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT);
    }

    /// Regression: exact powers of two must land deterministically in the
    /// bucket whose inclusive bound they equal — checked against a plain
    /// linear scan over the declared bounds for every power of two a u64
    /// can hold, plus both neighbors (the values most exposed to
    /// off-by-one arithmetic).
    #[test]
    fn power_of_two_samples_land_on_their_own_bound() {
        let linear = |ns: u64| -> usize {
            BUCKET_BOUNDS_NS
                .iter()
                .position(|&b| ns <= b)
                .unwrap_or(BUCKET_COUNT)
        };
        for k in 0..64 {
            let p = 1u64 << k;
            for ns in [p.saturating_sub(1), p, p.saturating_add(1)] {
                assert_eq!(bucket_index(ns), linear(ns), "ns={ns} (2^{k} neighborhood)");
            }
        }
        // The boundary itself and its successor always differ (until the
        // overflow bucket absorbs both).
        for &b in &BUCKET_BOUNDS_NS[..BUCKET_COUNT - 1] {
            assert_ne!(bucket_index(b), bucket_index(b + 1), "bound {b}");
        }
    }

    #[test]
    fn histogram_counts_and_buckets() {
        let h = Histogram::new();
        for ns in [100u64, 300, 1000, 5000, 100_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum_ns(), 106_400);
        // (0, 256], (256, 512], (512, 1024], (4096, 8192], (65536, 131072].
        let snap = h.snapshot();
        let filled: Vec<usize> = (0..=BUCKET_COUNT).filter(|&i| snap.counts[i] > 0).collect();
        assert_eq!(filled, [0, 1, 2, 5, 9]);
        assert_eq!(snap.counts.iter().sum::<u64>(), 5);
    }

    #[test]
    fn registry_reuses_handles() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("hits_total", &[("shard", "0")]);
        let b = reg.counter("hits_total", &[("shard", "0")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same key must share the cell");
        let other = reg.counter("hits_total", &[("shard", "1")]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x", &[]);
        reg.gauge("x", &[]);
    }

    #[test]
    fn prometheus_format_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("requests_total", &[("kind", "read")]).add(3);
        reg.gauge("queue_depth", &[]).set(2);
        let h = reg.histogram("latency_ns", &[("stage", "parse")]);
        h.record(300);
        h.record(70_000);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE requests_total counter"), "{text}");
        assert!(text.contains("requests_total{kind=\"read\"} 3"), "{text}");
        assert!(text.contains("# TYPE queue_depth gauge"), "{text}");
        assert!(text.contains("queue_depth 2"), "{text}");
        assert!(text.contains("# TYPE latency_ns histogram"), "{text}");
        assert!(
            text.contains("latency_ns_bucket{stage=\"parse\",le=\"512\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("latency_ns_bucket{stage=\"parse\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("latency_ns_sum{stage=\"parse\"} 70300"),
            "{text}"
        );
        assert!(
            text.contains("latency_ns_count{stage=\"parse\"} 2"),
            "{text}"
        );
        // Cumulative buckets never decrease.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("latency_ns_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "{line}");
            last = v;
        }
    }

    #[test]
    fn snapshot_delta_windows_an_interval() {
        let h = Histogram::new();
        h.record(300);
        h.record(5_000);
        let base = h.snapshot();
        h.record(5_000);
        h.record(70_000);
        let d = h.snapshot().delta(&base);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum_ns, 75_000);
        assert_eq!(d.counts.iter().sum::<u64>(), 2);
        // The interval excludes the pre-base 300ns observation entirely.
        assert_eq!(d.counts[bucket_index(300)], 0);
    }

    #[test]
    fn stage_timer_splits() {
        let mut t = StageTimer::start();
        let h = Histogram::new();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let a = t.lap_into(&h);
        assert!(a >= 1_000_000, "{a}");
        assert_eq!(h.count(), 1);
        let b = t.lap();
        assert!(b < a, "second lap must restart from the first lap's end");
    }
}
