//! The metric catalogue and the result line.
//!
//! Every workload reports every end-to-end metric, and in a traced run
//! every per-layer metric. A layer a workload does not exercise reports
//! zero work (and zero time) for it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: name and unit. Measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("agreements_per_s", "1/s"),
    ("payload_mib_per_s", "MiB/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: name and unit. Measured in the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.offered", "count"),
    ("svc.submit_us_p50", "us"),
    ("svc.poll_us_p50", "us"),
    ("svc.tick_us_p50", "us"),
    ("svc.tick_us_p99", "us"),
    ("svc.busy_frac", "ratio"),
    ("svc.queue_wait_ms_p50", "ms"),
    ("svc.service_ms_p50", "ms"),
    ("svc.ticks_per_agreement", "count"),
    ("svc.inflight_mean", "count"),
    ("svc.queue_depth_mean", "count"),
    ("svc.shed", "count"),
    ("svc.rejected", "count"),
    ("wire.transmissions_per_agreement", "count"),
    ("wire.retransmissions_per_agreement", "count"),
    ("wire.delivered_frac", "ratio"),
    ("wire.frames_per_flush", "count"),
    ("wire.flushes_per_agreement", "count"),
    ("wire.frames_failed", "count"),
    ("crypto.hashes_per_agreement", "count"),
    ("crypto.sig_verifications_per_agreement", "count"),
    ("crypto.cache_hit_rate", "ratio"),
    ("crypto.cache_evictions", "count"),
    ("algos.build_us_p50", "us"),
    ("algos.messages_per_agreement", "count"),
    ("algos.signatures_per_agreement", "count"),
    ("algos.bound_ratio", "ratio"),
    ("engine.phases", "count"),
    ("engine.bytes_per_agreement", "bytes"),
    ("ext.digest_ms", "ms"),
    ("ext.encode_ms", "ms"),
    ("ext.reconstruct_ms", "ms"),
    ("ext.protocol_ms", "ms"),
    ("ext.inner_bytes", "bytes"),
    ("ext.dissemination_bytes", "bytes"),
    ("ext.vote_bytes", "bytes"),
    ("ext.fetch_bytes", "bytes"),
    ("ext.overhead_ratio", "ratio"),
    ("ext.repair_requests", "count"),
    ("overhead.latency_p50_ms", "ms"),
    ("overhead.latency_p99_ms", "ms"),
    ("overhead.agreements_per_s", "1/s"),
    ("overhead.payload_mib_per_s", "MiB/s"),
    ("overhead.setup_s", "s"),
    ("overhead.peak_rss_mib", "MiB"),
];

/// Measured values by metric name, with the sample count behind each.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, (f64, usize)>);

impl Values {
    /// Records `name`; `samples` is how many observations it summarizes.
    ///
    /// # Panics
    /// On a name outside both catalogues.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        let known = END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name);
        assert!(known, "metric {name} is not in the catalogue");
        self.0.insert(name, (value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|v| v.0)
    }
}

/// What one invocation produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check and fingerprint failures; any makes the run incorrect.
    pub problems: Vec<String>,
    pub values: Values,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Records a failed set-up: its warm-up agreement counts as one
    /// attempted and failed operation.
    pub fn fail_setup(&mut self, problem: String) {
        self.attempted += 1;
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Prints every catalogue metric with its unit and sample count.
    pub fn print_table(&self, catalogue: &[(&str, &str)]) {
        for (name, unit) in catalogue {
            let (value, samples) = self.values.0.get(name).copied().unwrap_or((0.0, 0));
            eprintln!("  {name:<40} {value:>16.6} {unit:<6} (n = {samples})");
        }
    }

    /// The result line: one JSON object with the catalogue's metrics.
    pub fn json(&self, catalogue: &[(&str, &str)]) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = self.values.get(name).unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// A finite JSON number with every digit Rust prints for it.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_every_metric_and_the_four_keys() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        outcome.values.set("latency_p50_ms", 1.25, 3);
        let line = outcome.json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
        assert!(line.contains("{\"value\": 1.25, \"unit\": \"ms\"}"));
        outcome.problems.push("wrong".into());
        assert!(outcome.json(PER_LAYER).starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_metric_names_are_refused() {
        Values::default().set("nope", 1.0, 1);
    }

    /// The catalogues and BENCHMARK.json at the repository root name the
    /// same metrics with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
