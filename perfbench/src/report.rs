//! What one run reports: the metric catalogue, the correctness tally, and
//! the JSON result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("verify_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_tail_ms", "ms"),
    ("jobs_per_s", "1/s"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run. A layer
/// that a workload does not touch reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.parse_us", "us"),
    ("lang.compile_us", "us"),
    ("lang.program_transitions", "count"),
    ("ltl.translate_us", "us"),
    ("ltl.buchi_states", "count"),
    ("kernel.states", "count"),
    ("kernel.steps", "count"),
    ("kernel.peak_frontier", "count"),
    ("kernel.states_per_s", "1/s"),
    ("kernel.bytes_per_state", "B"),
    ("kernel.verify_2t_s", "s"),
    ("kernel.states_per_s_2t", "1/s"),
    ("kernel.speedup_2t", "ratio"),
    ("kernel.sim_steps_per_s", "1/s"),
    ("ltl.product_states", "count"),
    ("ltl.product_states_per_s", "1/s"),
    ("ltl.cndfs_2t_s", "s"),
    ("snapshot.stores", "count"),
    ("snapshot.bytes_per_store", "B"),
    ("snapshot.store_ms", "ms"),
    ("snapshot.codec_mb_per_s", "MB/s"),
    ("vfs.write_ops", "count"),
    ("vfs.read_ops", "count"),
    ("vfs.sync_ops", "count"),
    ("vfs.rename_ops", "count"),
    ("vfs.write_mb", "MB"),
    ("vfs.busy_ms", "ms"),
    ("spill.bytes_per_state", "B"),
    ("spill.merge_passes", "count"),
    ("serve.submit_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.result_ms", "ms"),
    ("serve.supervisor_ms", "ms"),
    ("serve.daemon_start_ms", "ms"),
    ("serve.http_share", "ratio"),
    ("serve.shed", "count"),
    ("serve.retries", "count"),
    ("serve.attempts_per_job", "count"),
    ("self.search_ms", "ms"),
    ("self.storage_ms", "ms"),
    ("self.http_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_ms", "ms"),
];

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations that were wrong, refused, shed or failed.
    pub failed: u64,
    /// What failed, for the log.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Lines printed before the result: tail percentiles, sample counts.
    pub notes: Vec<String>,
}

impl Report {
    /// Counts one checked operation; `ok == false` counts a failure
    /// described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Sets a metric; `name` must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// The JSON result line: the end-to-end metrics, or with `traced` the
    /// per-layer ones.
    ///
    /// # Errors
    ///
    /// Names an end-to-end metric the workload did not measure, or a
    /// value that is not a finite number.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            if i > 0 {
                metrics.push_str(", ");
            }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn untraced_line_needs_every_end_to_end_metric() {
        let mut report = Report::default();
        report.check(true, String::new);
        assert!(report.result_line(false).is_err());
        for (name, _) in END_TO_END {
            report.set(name, 1.5);
        }
        let line = report.result_line(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        // Traced lines fill layers the workload did not touch with 0.
        assert!(report
            .result_line(true)
            .unwrap()
            .contains("\"vfs.write_ops\": {\"value\": 0.0, \"unit\": \"count\"}"));
    }
}
