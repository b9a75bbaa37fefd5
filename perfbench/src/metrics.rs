//! Metric names, units and the run result the benchmark prints.

use std::collections::BTreeMap;

/// The end-to-end metrics, reported by every workload with `--trace 0`.
/// A job is one compile (compile workloads) or one request (service);
/// QoR is taken over the distinct designs a run compiled.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "frac"),
    // Geometric mean of every job's latency: from its start (closed
    // loop) or its due time (open loop) to its result.
    ("latency_ms", "ms"),
    // The same over the jobs that compile a design no earlier job
    // compiled: every job of a compile workload, the misses of the
    // service.
    ("compile_s", "s"),
    ("critical_path_ns", "ns"),
    ("wirelength", "segments"),
    ("power_mw", "mW"),
    ("luts", "count"),
    ("channel_width", "tracks"),
];

/// Every per-layer metric, reported by each workload's traced run
/// (`--trace 1`). A layer a workload never enters reports 0. Times and
/// counts are per job (compile workloads) or per request (service).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("synth.lut_map_ms", "ms"),
    ("synth.luts", "count"),
    ("synth.depth", "count"),
    ("pack.ms", "ms"),
    ("pack.clbs", "count"),
    ("place.ms", "ms"),
    ("place.cost", "cost"),
    ("place.hpwl", "tiles"),
    ("route.ms", "ms"),
    ("route.pathfinder_ms", "ms"),
    ("route.iterations", "count"),
    ("route.rrgraph_ms", "ms"),
    ("route.sta_ms", "ms"),
    ("route.critical_path_ns", "ns"),
    ("route.minw_ms", "ms"),
    ("route.minw_attempts", "count"),
    ("route.minw_failed_ms", "ms"),
    ("route.minw_useful_ratio", "frac"),
    ("power.ms", "ms"),
    ("vhdl.synthesize_ms", "ms"),
    ("bitstream.generate_ms", "ms"),
    ("bitstream.bytes", "bytes"),
    ("bitstream.fabric_verify_ms", "ms"),
    ("verify.cec_ms", "ms"),
    ("verify.cones", "count"),
    ("flow.stage_key_ms", "ms"),
    ("flow.cache.memory_hits", "count"),
    ("flow.cache.disk_hits", "count"),
    ("flow.cache.misses", "count"),
    ("flow.store.bytes", "bytes"),
    ("server.blif_write_ms", "ms"),
    ("server.blif_parse_ms", "ms"),
    ("server.queue_wait_ms", "ms"),
    ("server.hit_fresh_conn_ms", "ms"),
    ("server.hit_reused_conn_ms", "ms"),
    ("server.transport_stall_ms", "ms"),
    ("service.hit_p50_ms", "ms"),
    ("service.hit_p75_ms", "ms"),
    ("service.miss_p50_ms", "ms"),
    ("service.jobs_per_s", "1/s"),
    ("gateway.hit_overhead_ms", "ms"),
    ("gateway.shed", "count"),
    ("gateway.failovers", "count"),
    ("loadgen.late_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
];

/// What one run prints as its last line.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every output checked and found correct.
    pub correct: bool,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// The result line, with exactly the metrics of `spec` (a missing
    /// value is an error: the run could not measure what it promises).
    pub fn to_json(&self, spec: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut metrics = serde_json::Map::new();
        for (name, unit) in spec {
            let v = self
                .metrics
                .get(name)
                .copied()
                .ok_or_else(|| format!("metric '{name}' was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric '{name}' is not finite: {v}"));
            }
            metrics.insert(
                name.to_string(),
                serde_json::json!({"value": v, "unit": unit}),
            );
        }
        let line = serde_json::json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": serde_json::Value::Object(metrics),
        });
        Ok(line.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::Workload;

    /// A metric name: starts with a letter or digit; at most 64 letters,
    /// digits, `_`, `.` and `-`.
    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// A unit: at most 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn declared(list: &serde_json::Value) -> BTreeMap<String, String> {
        list.as_array()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap().to_string(),
                    m["unit"].as_str().unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in PER_LAYER {
            assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
            assert!(seen.insert(*name), "duplicate {name}");
        }
        for (name, unit) in END_TO_END {
            assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
            assert!(seen.insert(*name), "duplicate {name}");
        }
    }

    /// BENCHMARK.json declares exactly the metrics (and units) the runs
    /// print.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let spec: serde_json::Value = serde_json::from_str(&text).unwrap();
        let listed = |list: &[(&str, &str)]| -> BTreeMap<String, String> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&spec["end_to_end"]), listed(END_TO_END));
        assert_eq!(declared(&spec["per_layer"]), listed(PER_LAYER));
        let workloads: Vec<&str> = spec["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
        for m in spec["end_to_end"].as_array().unwrap() {
            let bound = m["bound"].as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{m}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_promised_metrics() {
        let mut o = Outcome {
            attempted: 3,
            correct: true,
            ..Default::default()
        };
        o.metrics.insert("setup_s", 0.5);
        assert!(o.to_json(&[("setup_s", "s"), ("ok_frac", "frac")]).is_err());
        o.metrics.insert("ok_frac", 1.0);
        let line = o.to_json(&[("setup_s", "s"), ("ok_frac", "frac")]).unwrap();
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
        assert_eq!(v["attempted"].as_u64(), Some(3));
    }
}
