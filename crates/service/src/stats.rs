//! The results/stats component: service-level counters and sweep-row export.
//!
//! Two views are served. `/stats` is a live counter block (submissions, slices,
//! crashes, retries, per-tenant slice shares — the observable side of the weighted
//! round-robin fairness claim). `/stats/rows` renders every **finished** job as a
//! [`SweepRow`], the exact row schema of `BENCH_scheduler.json` (`nc_bench::sweep`),
//! so the sweep binary's offline baseline and the service's online results are
//! readable by the same tooling. Wall-clock fields in those rows are measured, not
//! deterministic; the deterministic artifact is the job's [`JobReport`](crate::runner::JobReport).

use std::collections::BTreeMap;

use nc_bench::sweep::SweepRow;

use crate::job::JobState;
use crate::queue::{JobQueue, SliceResult};

/// Live counters of the service (all monotone).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServiceStats {
    /// Jobs submitted.
    pub submitted: u64,
    /// Slices executed (parked or finished; crashed slices count separately).
    pub slices: u64,
    /// Jobs finished with a report.
    pub done: u64,
    /// Jobs failed permanently.
    pub failed: u64,
    /// Worker crashes absorbed (injected or genuine).
    pub crashes: u64,
    /// Slices executed per tenant (the fairness observable).
    pub tenant_slices: BTreeMap<String, u64>,
}

impl ServiceStats {
    /// Records the outcome of one executed slice for `tenant`.
    pub fn record_slice(&mut self, tenant: &str, result: &SliceResult) {
        match result {
            SliceResult::Parked { .. } => {
                self.slices += 1;
                *self.tenant_slices.entry(tenant.to_string()).or_default() += 1;
            }
            SliceResult::Done { .. } => {
                self.slices += 1;
                self.done += 1;
                *self.tenant_slices.entry(tenant.to_string()).or_default() += 1;
            }
            SliceResult::Failed { .. } => self.failed += 1,
            SliceResult::Crashed { .. } => self.crashes += 1,
        }
    }

    /// The counter block as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let tenants = self
            .tenant_slices
            .iter()
            .map(|(tenant, slices)| format!("\"{}\": {}", escape_json(tenant), slices))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"submitted\": {}, \"slices\": {}, \"done\": {}, \"failed\": {}, \"crashes\": {}, \"tenant_slices\": {{{}}}}}",
            self.submitted, self.slices, self.done, self.failed, self.crashes, tenants
        )
    }
}

/// Renders every finished job of the queue as a `BENCH_scheduler.json`-style rows
/// document (the same [`SweepRow::to_json`] bytes the sweep binary emits).
#[must_use]
pub fn rows_json(queue: &JobQueue) -> String {
    let rows: Vec<String> = queue
        .records()
        .iter()
        .filter(|record| record.state == JobState::Done)
        .filter_map(|record| {
            let report = record.report.as_ref()?;
            let seconds = record.seconds.max(1e-9);
            Some(
                SweepRow {
                    protocol: report.protocol.clone(),
                    n: report.n,
                    mode: report.mode.clone(),
                    shards: report.shards,
                    seed: report.seed,
                    seconds: record.seconds,
                    steps: report.steps,
                    effective_steps: report.effective_steps,
                    skipped_steps: report.skipped_steps,
                    steps_per_sec: report.steps as f64 / seconds,
                    completed: report.completed,
                    snapshot_ms: 0.0,
                    resume_ms: 0.0,
                    // Per-job phase profiling is not wired through the service
                    // runner; plain rows keep the original schema.
                    profile: None,
                }
                .to_json(),
            )
        })
        .collect();
    format!("{{\n  \"rows\": [\n{}\n  ]\n}}\n", rows.join(",\n"))
}

/// Escapes a string for embedding in a JSON string literal (tenant names and error
/// messages are tenant-controlled input).
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, ProtocolKind};
    use crate::queue::JobQueue;
    use crate::runner::JobReport;

    #[test]
    fn counters_track_slice_outcomes() {
        let mut stats = ServiceStats::default();
        stats.record_slice(
            "a",
            &SliceResult::Parked {
                snapshot: vec![],
                steps: 1,
            },
        );
        stats.record_slice(
            "a",
            &SliceResult::Done {
                report: JobReport {
                    protocol: "square".into(),
                    n: 4,
                    seed: 1,
                    mode: "indexed".into(),
                    shards: 1,
                    steps: 10,
                    effective_steps: 5,
                    skipped_steps: 0,
                    completed: true,
                },
                steps: 10,
            },
        );
        stats.record_slice(
            "b",
            &SliceResult::Crashed {
                message: "x".into(),
            },
        );
        assert_eq!(stats.slices, 2);
        assert_eq!(stats.done, 1);
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.tenant_slices.get("a"), Some(&2));
        assert_eq!(stats.tenant_slices.get("b"), None);
        let json = stats.to_json();
        assert!(json.contains("\"slices\": 2"), "{json}");
        assert!(json.contains("\"a\": 2"), "{json}");
    }

    #[test]
    fn rows_document_has_the_sweep_schema() {
        let mut queue = JobQueue::new(1);
        let id = queue.submit(JobSpec::new(ProtocolKind::Square, 9));
        let claim = queue.claim_next().expect("claim");
        let (result, seconds) = crate::worker::run_slice(&claim, 1_000_000);
        queue.complete_slice(id, result, seconds);
        let doc = rows_json(&queue);
        for key in [
            "\"rows\"",
            "\"protocol\": \"square\"",
            "\"steps_per_sec\"",
            "\"completed\": true",
        ] {
            assert!(doc.contains(key), "{key} missing in {doc}");
        }
    }

    #[test]
    fn json_escaping_neutralises_control_and_quote_bytes() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("x\ny"), "x\\ny");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
