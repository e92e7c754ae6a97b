//! The metric catalogue — every name a run's result line holds, with its
//! unit — and the JSON a run ends with. `BENCHMARK.json` at the repository
//! root lists the same names beside each metric's direction and bound; a
//! unit test holds the two equal.

use crate::layers::OP_KINDS;
use std::fmt::Write as _;

#[derive(Clone, Debug)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// A count that must repeat bit for bit when seed and code are equal.
    pub exact: bool,
}

fn def(name: &str, unit: &'static str) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        exact: false,
    }
}

fn exact(name: &str, unit: &'static str) -> MetricDef {
    MetricDef {
        exact: true,
        ..def(name, unit)
    }
}

/// What a user of the system sees; every workload reports every one.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("throughput_ops_s", "ops/s"),
        def("query_p50_us", "us"),
        def("cpu_us_per_op", "us"),
        def("peak_rss_mb", "MB"),
        def("setup_s", "s"),
    ]
}

/// One layer each, named after the crate; a layer a workload does not
/// exercise reports 0.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = vec![
        def("zql.parse_us", "us"),
        def("zql.simplify_us", "us"),
        exact("zql.plan_nodes", "count"),
        def("algebra.fingerprint_us", "us"),
        def("core.cache_probe_us", "us"),
        def("core.cache_insert_us", "us"),
        exact("core.cache_hit_ratio", "ratio"),
        exact("core.cache_evictions", "count"),
        def("core.optimize_us", "us"),
        def("core.optimize_p99_us", "us"),
        exact("core.est_cost_ms", "sim_ms"),
        exact("volcano.transform_firings", "count"),
        exact("volcano.plans_costed", "count"),
        exact("volcano.goals", "count"),
        exact("volcano.memo_exprs", "count"),
        exact("volcano.pruned", "count"),
        def("exec.execute_us", "us"),
        def("exec.execute_p99_us", "us"),
        def("exec.ns_per_tuple", "ns"),
        exact("exec.tuples_per_row", "ratio"),
        exact("exec.preds", "count"),
        exact("exec.hash_ops", "count"),
        exact("exec.derefs", "count"),
        exact("exec.mem_peak_bytes", "bytes"),
    ];
    defs.extend(OP_KINDS.map(|kind| def(&format!("exec.self_us.{kind}"), "us")));
    defs.extend([
        exact("storage.buffer_hit_ratio", "ratio"),
        exact("storage.pages_read", "count"),
        exact("storage.sim_io_ms", "sim_ms"),
        def("storage.collect_statistics_us", "us"),
        def("storage.datagen_s", "s"),
        def("service.submit_us", "us"),
        def("service.submit_p99_us", "us"),
        def("service.self_us", "us"),
        def("service.stage_skew_ratio", "ratio"),
        def("service.refresh_us", "us"),
        def("server.rtt_us", "us"),
        def("server.rtt_p99_us", "us"),
        def("server.self_us", "us"),
        def("server.json_encode_us", "us"),
        def("server.json_decode_us", "us"),
        def("server.http_read_us", "us"),
        def("server.http_write_us", "us"),
        def("server.transport_us", "us"),
        def("server.response_bytes", "bytes"),
        def("server.encode_ns_per_row", "ns"),
        def("server.prepared_rtt_us", "us"),
        exact("server.shed_ratio", "ratio"),
        def("wal.append_us", "us"),
        def("wal.flush_us", "us"),
        exact("wal.bytes_per_record", "bytes"),
        exact("wal.bytes_per_mutation", "bytes"),
        exact("wal.syncs_per_mutation", "count"),
        def("wal.checkpoint_ms", "ms"),
        exact("wal.checkpoint_bytes", "bytes"),
        def("wal.recover_ms", "ms"),
        exact("wal.replayed_records", "count"),
        def("wal.set_members_append_us", "us"),
        def("bench.dominant_share", "ratio"),
        def("bench.layer_sum_ratio", "ratio"),
        def("bench.trace_overhead_ratio", "ratio"),
        def("bench.rep_spread", "ratio"),
    ]);
    defs
}

/// One measured metric: the reported value and, for a timing taken once
/// per repetition (whose median the value is), every repetition's reading.
#[derive(Clone, Debug)]
pub struct Measured {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// The same value as the clock read it, for a timing in reference
    /// time (see `speed.rs`).
    pub raw: Option<f64>,
    pub per_repetition: Vec<f64>,
    /// A count that must repeat bit for bit when seed and code are equal.
    pub exact: bool,
}

impl Measured {
    /// Smallest and largest repetition, when there were repetitions.
    pub fn range(&self) -> Option<(f64, f64)> {
        let lo = self.per_repetition.iter().copied().reduce(f64::min)?;
        let hi = self.per_repetition.iter().copied().reduce(f64::max)?;
        Some((lo, hi))
    }
}

/// A number JSON can hold, with every digit the measurement has.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The object the contract wants on the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Measured]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::SPECS;
    use open_oodb::server::json::{self, Json};
    use std::collections::HashSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_alphabet() {
        let (e2e, layers) = (end_to_end(), per_layer());
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()));
        let mut seen = HashSet::new();
        for m in e2e.iter().chain(&layers) {
            assert!(valid_name(&m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} {}", m.name, m.unit);
            assert!(seen.insert(m.name.clone()), "{} is used twice", m.name);
        }
        assert!(!valid_name("µs") && !valid_name(".x") && !valid_unit("µs"));
        assert!(SPECS.iter().all(|s| valid_name(s.name)));
    }

    /// `(name, unit)` of every entry of one of `BENCHMARK.json`'s lists.
    fn listed(contract: &Json, key: &str) -> Vec<(String, String)> {
        let text = |entry: &Json, field: &str| {
            entry
                .get(field)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("{key}: an entry has no {field}"))
                .to_string()
        };
        contract
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|entry| (text(entry, "name"), text(entry, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        assert!(on_disk.len() < 64 * 1024);
        let contract = json::parse(&on_disk).expect("BENCHMARK.json parses");
        let catalogue = |defs: Vec<MetricDef>| -> Vec<(String, String)> {
            defs.into_iter()
                .map(|d| (d.name, d.unit.to_string()))
                .collect()
        };
        assert_eq!(listed(&contract, "end_to_end"), catalogue(end_to_end()));
        assert_eq!(listed(&contract, "per_layer"), catalogue(per_layer()));
        let workloads: Vec<String> = contract
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("BENCHMARK.json has workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect();
        assert_eq!(workloads, SPECS.map(|s| s.name.to_string()));
        for entry in contract.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = entry.get("bound").and_then(Json::as_f64).expect("a bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let metrics = [Measured {
            name: "query_p50_us".to_string(),
            unit: "us",
            value: 1203.4567,
            raw: None,
            per_repetition: Vec::new(),
            exact: false,
        }];
        let line = result_line(true, 1000, 0, &metrics);
        assert!(!line.contains('\n'));
        let v = json::parse(&line).expect("parses");
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(1000));
        assert_eq!(v.get("failed").and_then(Json::as_u64), Some(0));
        let m = v
            .get("metrics")
            .and_then(|m| m.get("query_p50_us"))
            .unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1203.4567));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("us"));
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
