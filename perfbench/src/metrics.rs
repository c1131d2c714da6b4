//! The benchmark's metric catalogue and its one-line JSON result.
//!
//! Every workload prints every metric of the catalogue it is asked
//! for: the end-to-end set on a timed run, the per-layer set on a
//! traced run. A layer a workload does not enter reads 0.

use std::collections::BTreeMap;

/// One metric: its name, unit, and whether it is a layer's self time
/// that counts toward `trace.coverage`.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub self_time: bool,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        self_time: false,
    }
}

const fn busy(name: &'static str) -> Metric {
    Metric {
        name,
        unit: "s",
        self_time: true,
    }
}

/// Metrics of a timed run (tracing off).
pub const END_TO_END: &[Metric] = &[
    m("wall_s", "s"),
    m("setup_s", "s"),
    m("work_per_s", "1/s"),
    m("peak_rss_mb", "MB"),
];

/// Metrics of a traced run, one group per layer. Each `busy_s` is the
/// layer's self time per round.
pub const PER_LAYER: &[Metric] = &[
    busy("workloads.trace.busy_s"),
    m("workloads.trace.ns_per_op", "ns"),
    busy("memsim.cache.busy_s"),
    m("memsim.cache.ns_per_op", "ns"),
    m("memsim.cache.hit_rate", "ratio"),
    busy("memsim.controller.busy_s"),
    m("memsim.controller.row_hit_rate", "ratio"),
    m("memsim.controller.read_latency_ns", "ns"),
    m("memsim.node.ops", "count"),
    busy("memsim.node.busy_s"),
    m("memsim.node.prewarm_s", "s"),
    m("memsim.node.sim_ms", "ms"),
    m("core.node_model.lookups", "count"),
    m("core.node_model.hit_ratio", "ratio"),
    busy("core.node_model.hit_busy_s"),
    busy("core.node_model.miss_busy_s"),
    m("core.protocol.reads", "count"),
    m("core.protocol.rereads", "count"),
    busy("core.protocol.busy_s"),
    m("core.adaptive.epochs", "count"),
    busy("core.adaptive.busy_s"),
    busy("energy.residency.busy_s"),
    busy("telemetry.snapshot_s"),
    busy("telemetry.export_s"),
    m("telemetry.export_bytes", "B"),
    busy("telemetry.parse_s"),
    m("workloads.jobs.generated", "count"),
    m("workloads.jobs.useful_ratio", "ratio"),
    busy("workloads.jobs.busy_s"),
    m("scheduler.federation.routes", "count"),
    busy("scheduler.federation.busy_s"),
    m("scheduler.cluster.jobs", "count"),
    busy("scheduler.cluster.busy_s"),
    m("scheduler.cluster.ns_per_job", "ns"),
    m("scheduler.cluster.backfilled", "count"),
    m("scheduler.cluster.queue_p99_s", "s"),
    m("check.failed_frac", "ratio"),
    m("check.paper_err_pct", "%"),
    m("trace.coverage", "ratio"),
    m("trace.unattributed_s", "s"),
    m("trace.overhead_pct", "%"),
];

/// Per-layer values of one traced round, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The sum of the self-time metrics in `layers`.
pub fn self_time_s(layers: &Layers) -> f64 {
    PER_LAYER
        .iter()
        .filter(|m| m.self_time)
        .map(|m| layers.get(m.name).copied().unwrap_or(0.0))
        .sum()
}

/// Renders the result line: every metric of `catalogue`, in catalogue
/// order, taken from `values` (absent ones read 0).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[Metric],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|m| {
            let v = values.get(m.name).copied().unwrap_or(0.0);
            // JSON has no NaN or infinity; a non-finite value is a bug
            // in the benchmark, never a measurement.
            assert!(v.is_finite(), "metric {} is not finite: {v}", m.name);
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::json::{self, Json};

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let Some(Json::Arr(rows)) = doc.get(section) else {
            panic!("BENCHMARK.json has no {section} array");
        };
        rows.iter()
            .map(|r| {
                let field = |k: &str| r.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn printed(catalogue: &[Metric]) -> Vec<(String, String)> {
        catalogue
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        assert_eq!(printed(END_TO_END), declared("end_to_end"));
        assert_eq!(printed(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn result_line_is_json_with_every_catalogue_metric() {
        let values = BTreeMap::from([("wall_s", 1.25)]);
        let line = result_line(true, 3, 0, END_TO_END, &values);
        let doc = json::parse(&line).expect("result line parses");
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(3.0));
        let metrics = doc.get("metrics").expect("metrics");
        for m in END_TO_END {
            let entry = metrics.get(m.name).expect(m.name);
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
        }
        let wall = metrics.get("wall_s").and_then(|e| e.get("value"));
        assert_eq!(wall.and_then(Json::as_f64), Some(1.25));
    }
}
