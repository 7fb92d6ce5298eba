//! Names, units and directions of every reported metric. Bounds live in
//! `BENCHMARK.json` only; a test keeps the two lists in step.

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name in the result JSON.
    pub name: &'static str,
    /// Unit in the result JSON.
    pub unit: &'static str,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of the system sees, from the untraced run of every
/// workload.
pub const END_TO_END: [Metric; 3] = [
    lower("setup_s", "s"),
    lower("op_ms_min", "ms"),
    lower("peak_rss_mib", "MiB"),
];

/// Single layers, from the traced run of every workload.
pub const PER_LAYER: [Metric; 33] = [
    lower("variation.draw_us", "us"),
    lower("mosfet.bias_us", "us"),
    lower("netlist.build_us", "us"),
    lower("mna.transfer_us", "us"),
    lower("opamp.die_us", "us"),
    lower("opamp.measure_share", "ratio"),
    lower("mna.solves_per_die_est", "count"),
    lower("adc.die_us", "us"),
    lower("adc.convert_share", "ratio"),
    lower("spectrum.sine_us", "us"),
    lower("fft.real_us", "us"),
    lower("spectrum.analyze_us", "us"),
    lower("monte_carlo.overhead_share", "ratio"),
    lower("monte_carlo.attempts_per_die", "ratio"),
    lower("pipeline.guard_us", "us"),
    lower("pipeline.prior_us", "us"),
    lower("pipeline.cv_us", "us"),
    lower("pipeline.ladder_us", "us"),
    lower("cv.fold_evals_per_op", "count"),
    lower("cv.candidates_per_op", "count"),
    lower("cholesky.calls_per_op", "count"),
    higher("pipeline.map_frac", "ratio"),
    lower("shard.merge_us", "us"),
    lower("pipeline.from_stats_us", "us"),
    lower("shard.packet_kib", "KiB"),
    lower("study.mc_share", "ratio"),
    lower("study.prepare_share", "ratio"),
    lower("study.sweep_share", "ratio"),
    lower("study.cv_share", "ratio"),
    higher("experiment.opamp_cov_cr_n8", "x"),
    higher("experiment.adc_cov_cr_n8", "x"),
    higher("experiment.adc_mean_cr_n8", "x"),
    lower("trace_overhead_frac", "ratio"),
];

/// The metric named `name`, from either list.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmf_obs::json::{self, Value};

    fn spec() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn listed(spec: &Value, key: &str) -> Vec<(String, String, String)> {
        spec.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn ours(list: &[Metric]) -> Vec<(String, String, String)> {
        list.iter()
            .map(|m| {
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (m.name.to_string(), m.unit.to_string(), better.to_string())
            })
            .collect()
    }

    #[test]
    fn lists_match_benchmark_json() {
        let spec = spec();
        assert_eq!(listed(&spec, "end_to_end"), ours(&END_TO_END));
        assert_eq!(listed(&spec, "per_layer"), ours(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let names: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, names);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
