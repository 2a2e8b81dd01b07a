//! Metric catalog, summary statistics and the result line.
//!
//! Every metric the benchmark can print is declared once here, with its unit. A run
//! prints exactly the end-to-end catalog (untraced run) or exactly the per-layer
//! catalog (traced run); [`Outcome::to_json`] refuses anything else, so a metric
//! can never be silently missing, renamed or misspelled.

use std::fmt::Write as _;

/// End-to-end metrics: what a user of the engine or the service sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
];

/// Per-layer metrics of the traced run. Times and counts are means per task (one
/// solve, or one service job) unless the name says otherwise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scheduler.sample_s", "s"),
    ("scheduler.calls", "count"),
    ("scheduler.credited_steps", "count"),
    ("world.apply_s", "s"),
    ("world.applies", "count"),
    ("world.merges", "count"),
    ("world.splits", "count"),
    ("world.delta_records", "count"),
    ("world.effective_ratio", "ratio"),
    ("world.is_stable_s", "s"),
    ("world.any_halted_s", "s"),
    ("index.dirty_marks", "count"),
    ("index.node_scans", "count"),
    ("index.candidate_hits", "count"),
    ("index.quiescent_hits", "count"),
    ("snapshot.encode_s", "s"),
    ("snapshot.decode_s", "s"),
    ("snapshot.bytes_per_node", "B"),
    ("runner.slices", "count"),
    ("runner.start_s", "s"),
    ("runner.resume_s", "s"),
    ("runner.advance_s", "s"),
    ("runner.checkpoint_s", "s"),
    ("queue.wait_s", "s"),
    ("queue.claim_s", "s"),
    ("queue.complete_s", "s"),
    ("worker.idle_s", "s"),
    ("http.request_s_p50", "s"),
    ("http.request_s_p99", "s"),
    ("http.requests", "count"),
    ("http.polls_per_job", "count"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.unattributed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// A set of named metric values being filled in by a workload.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Records `value` under `name` (the last write wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// The recorded value of `name`, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// The result of one benchmark run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Tasks (solves or jobs) attempted.
    pub attempted: u64,
    /// Tasks that failed a check (step budget, outcome, round trip, trajectory,
    /// or an HTTP answer out of protocol).
    pub failed: u64,
    /// The metric values.
    pub metrics: Metrics,
}

impl Outcome {
    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`, the metrics in `catalog` order.
    ///
    /// # Errors
    /// When a catalog metric is missing, an extra metric was recorded, or a value
    /// is not finite.
    pub fn to_json(&self, catalog: &[(&str, &str)]) -> Result<String, String> {
        for (name, _) in &self.metrics.values {
            if !catalog.iter().any(|(c, _)| c == name) {
                return Err(format!("metric {name} is not in the catalog"));
            }
        }
        let mut metrics = String::new();
        for (i, (name, unit)) in catalog.iter().enumerate() {
            let value = self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            if i > 0 {
                metrics.push_str(", ");
            }
            // `{:?}` prints the shortest representation that round-trips, so every
            // measured digit survives.
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        ))
    }
}

/// Quantile `q` in `[0, 1]` of `values` by linear interpolation between order
/// statistics (the "inclusive" method). 0 for an empty slice.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 for an empty slice).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of `total` over `tasks` (0 when there are no tasks).
#[must_use]
pub fn per_task(total: f64, tasks: usize) -> f64 {
    if tasks == 0 {
        0.0
    } else {
        total / tasks as f64
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Escapes `s` for a JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(catalog: &[(&'static str, &str)]) -> Metrics {
        let mut m = Metrics::default();
        for (i, (name, _)) in catalog.iter().enumerate() {
            m.set(name, 0.125 + i as f64);
        }
        m
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        for catalog in [END_TO_END, PER_LAYER] {
            for (i, (name, unit)) in catalog.iter().enumerate() {
                assert!(name.len() <= 64 && unit.len() <= 16, "{name}");
                assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
                assert!(name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
                assert!(unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
                assert!(
                    !catalog[..i].iter().any(|(other, _)| other == name),
                    "{name} declared twice"
                );
            }
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // the benchmark directory is being built on its own
        };
        let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        let declared = compact.matches("\"name\":").count();
        // Workloads are named too; everything else must be a catalog metric.
        let workloads = compact.matches("\"why\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + workloads);
    }

    #[test]
    fn result_line_prints_every_metric_with_its_unit_in_order() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            metrics: full(END_TO_END),
        };
        let line = outcome.to_json(END_TO_END).expect("complete");
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"latency_p50_s\": {\"value\": 0.125, \"unit\": \"s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 3.125, \"unit\": \"s\"}"));
        let mut last = 0;
        for (name, _) in END_TO_END {
            let at = line.find(&format!("\"{name}\"")).expect("present");
            assert!(at >= last, "{name} out of order");
            last = at;
        }
        assert!(!line.contains('\n'));
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let outcome = Outcome {
            attempted: 4,
            failed: 1,
            metrics: full(PER_LAYER),
        };
        assert!(outcome
            .to_json(PER_LAYER)
            .unwrap()
            .starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1,"));
    }

    #[test]
    fn missing_extra_and_non_finite_metrics_are_refused() {
        let mut m = full(END_TO_END);
        m.values.retain(|(n, _)| *n != "setup_s");
        let outcome = Outcome {
            attempted: 1,
            failed: 0,
            metrics: m,
        };
        assert!(outcome.to_json(END_TO_END).unwrap_err().contains("setup_s"));

        let mut m = full(END_TO_END);
        m.set("world.apply_s", 1.0);
        let outcome = Outcome {
            attempted: 1,
            failed: 0,
            metrics: m,
        };
        assert!(outcome
            .to_json(END_TO_END)
            .unwrap_err()
            .contains("world.apply_s"));

        let mut m = full(END_TO_END);
        m.set("setup_s", f64::NAN);
        let outcome = Outcome {
            attempted: 1,
            failed: 0,
            metrics: m,
        };
        assert!(outcome.to_json(END_TO_END).unwrap_err().contains("finite"));
    }

    #[test]
    fn values_keep_all_their_digits() {
        let mut m = full(END_TO_END);
        m.set("latency_p50_s", 2.046_318_774_1);
        let outcome = Outcome {
            attempted: 1,
            failed: 0,
            metrics: m,
        };
        assert!(outcome
            .to_json(END_TO_END)
            .unwrap()
            .contains("2.0463187741"));
    }

    #[test]
    fn quantiles_interpolate_like_the_inclusive_method() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(per_task(3.0, 0), 0.0);
    }
}
