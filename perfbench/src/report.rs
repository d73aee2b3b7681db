//! What a run prints: the record line (fingerprint, seed, thread count,
//! sample counts) and the final result line.

use serde_json::Value;

use crate::check::Tally;
use crate::spans::Span;

/// A metric as printed: name, value and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run reports: metrics, the failure tally, details for the
/// record line, and (traced runs) the spans.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    pub details: Vec<(String, Value)>,
    pub spans: Vec<Span>,
}

/// The machine a record was measured on. Records whose fingerprints
/// differ measure different machines and are flagged when compared.
pub fn fingerprint(threads: usize) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    serde_json::json!({
        "nproc": threads as u64,
        "cpu": cpu,
        "rustc": env!("PERFBENCH_RUSTC"),
    })
}

/// Worker threads for every driver: the machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Every per-layer metric and its unit, in `BENCHMARK.json` order. A
/// traced run reports each one; a layer its workload does not exercise
/// reads 0 and is listed under `not_exercised` in the record line.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("vbench.build_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("core.prune_ctx_ms", "ms"),
    ("core.experiment_us.p50", "us"),
    ("core.experiment_us.p99", "us"),
    ("core.golden_share", "ratio"),
    ("core.discharged_frac", "ratio"),
    ("core.sdc", "count"),
    ("core.benign", "count"),
    ("core.crash", "count"),
    ("vexec.ns_per_dyn_inst", "ns"),
    ("vexec.golden_dyn_insts", "count"),
    ("orch.shard_ms.p50", "ms"),
    ("orch.shard_ms.p99", "ms"),
    ("orch.append_us.p50", "us"),
    ("orch.append_us.p99", "us"),
    ("orch.trace_append_us.p50", "us"),
    ("orch.shards_read_ms", "ms"),
    ("orch.merge_ms", "ms"),
    ("orch.key_ms", "ms"),
    ("orch.bytes_per_exp", "B"),
    ("serve.submit_rtt_ms.p50", "ms"),
    ("serve.status_rtt_ms.p50", "ms"),
    ("serve.polls_per_study", "count"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.exec_share", "ratio"),
    ("serve.cache_hit_ms.p50", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
];

/// Keep the measured layer values; `None` marks a layer with no samples.
pub fn measured(layer: Vec<(&'static str, Option<f64>, &'static str)>) -> Vec<Metric> {
    layer
        .into_iter()
        .filter_map(|(name, value, unit)| value.map(|v| metric(name, v, unit)))
        .collect()
}

/// All of [`PER_LAYER`] in order, taking measured values where present;
/// returns the names filled in with 0.
pub fn complete_layers(measured: &[Metric]) -> (Vec<Metric>, Vec<&'static str>) {
    let mut missing = Vec::new();
    let all = PER_LAYER
        .iter()
        .map(
            |&(name, unit)| match measured.iter().find(|m| m.name == name) {
                Some(m) => m.clone(),
                None => {
                    missing.push(name);
                    metric(name, 0.0, unit)
                }
            },
        )
        .collect();
    (all, missing)
}

pub fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    serde_json::json!({ "value": m.value, "unit": m.unit }),
                )
            })
            .collect(),
    )
}

/// The last stdout line of a run.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let doc = serde_json::json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_json(metrics),
    });
    serde_json::to_string(&doc).expect("the vendored JSON writer is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 4, 0, &[metric("setup_s", 0.5, "s")]);
        let v: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.5));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn per_layer_table_matches_benchmark_json() {
        let doc: Value = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let listed: Vec<(String, String)> = doc
            .get("per_layer")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect();
        let ours: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, ours);
        let (all, missing) = complete_layers(&[metric("core.sdc", 3.0, "count")]);
        assert_eq!(all.len(), PER_LAYER.len());
        assert_eq!(missing.len(), PER_LAYER.len() - 1);
        assert!(!missing.contains(&"core.sdc"));
    }
}
