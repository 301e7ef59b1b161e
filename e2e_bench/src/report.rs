//! Metric names and units, correctness checks, and the result line.

use std::fmt::Write as _;

/// End-to-end metrics, reported by every untraced run of every workload.
pub const END_TO_END: [(&str, &str); 10] = [
    ("samples_per_s", "samples/s"),
    ("round_ms_p50", "ms"),
    ("round_ms_p90", "ms"),
    ("setup_s", "s"),
    ("cpu_ms_per_round", "ms"),
    ("peak_rss_mb", "MB"),
    ("ingress_bytes_per_round", "bytes"),
    ("test_accuracy", "fraction"),
    ("clean_file_fraction", "fraction"),
    ("decided_file_ratio", "fraction"),
];

/// Per-layer metrics, reported by every traced run of every workload.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("data.generate_ms", "ms"),
    ("data.batch_split_us", "us"),
    ("assign.build_ms", "ms"),
    ("distortion.cmax_ms", "ms"),
    ("distortion.bound", "fraction"),
    ("nn.forward_us", "us"),
    ("nn.forward_calls", "count"),
    ("nn.fast_grad_us", "us"),
    ("nn.grads_per_round", "count"),
    ("attack.forge_us", "us"),
    ("attack.forge_calls", "count"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.frames_per_round", "count"),
    ("wire.frame_bytes_per_round", "bytes"),
    ("wire.payload_ratio", "fraction"),
    ("wire.broadcast_encode_us", "us"),
    ("wire.broadcast_decode_us", "us"),
    ("wire.tcp_frame_us", "us"),
    ("engine.compute_ms", "ms"),
    ("engine.collect_ms", "ms"),
    ("engine.vote_ms", "ms"),
    ("engine.update_ms", "ms"),
    ("engine.overlap_ratio", "ratio"),
    ("aggregate.vote_us", "us"),
    ("aggregate.median_us", "us"),
    ("aggregate.strict_vote_ratio", "fraction"),
    ("aggregate.degraded_votes", "count"),
    ("kernel.update_us", "us"),
    ("reputation.fold_us", "us"),
    ("reputation.quarantined", "count"),
    ("reputation.precision", "fraction"),
    ("audit.corrupted_file_fraction", "fraction"),
    ("audit.abandoned_file_ratio", "fraction"),
    ("replay.unattributed_ms", "ms"),
    ("baseline.single_worker_samples_per_s", "samples/s"),
    ("trace.samples_per_s", "samples/s"),
    ("trace.untraced_samples_per_s", "samples/s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// One correctness check of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64)>,
    pub checks: Vec<Check>,
    /// Engine rounds the run set out to execute.
    pub rounds_attempted: u64,
    /// Rounds lost to an engine call that failed.
    pub rounds_failed: u64,
    /// Extra facts for the stamp line: sample counts, round counts.
    pub notes: Vec<(&'static str, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail: detail.into(),
        });
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.push((key, value.to_string()));
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Operations: engine rounds plus correctness checks.
    pub fn attempted(&self) -> u64 {
        (self.rounds_attempted + self.checks.len() as u64).max(1)
    }

    pub fn failed(&self) -> u64 {
        self.rounds_failed + self.checks.iter().filter(|c| !c.passed).count() as u64
    }

    /// The result line for `table`, or the names that are missing,
    /// unknown, duplicated, malformed or not finite.
    pub fn result_json(&self, table: &[(&str, &str)]) -> Result<String, Vec<String>> {
        let mut problems = Vec::new();
        for (name, _) in table {
            match self.metrics.iter().filter(|(n, _)| n == name).count() {
                0 => problems.push(format!("missing metric {name}")),
                1 => {}
                _ => problems.push(format!("duplicate metric {name}")),
            }
        }
        for (name, value) in &self.metrics {
            if !table.iter().any(|(n, _)| n == name) {
                problems.push(format!("unlisted metric {name}"));
            }
            if !valid_name(name) {
                problems.push(format!("malformed metric name {name:?}"));
            }
            if !value.is_finite() {
                problems.push(format!("metric {name} is not finite: {value}"));
            }
        }
        if !problems.is_empty() {
            return Err(problems);
        }
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self.value(name).expect("presence checked above");
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                metrics,
                "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(value)
            );
        }
        let correct = self.failed() == 0;
        Ok(format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.attempted(),
            self.failed()
        ))
    }

    /// The stamp line: notes and every check with its verdict.
    pub fn stamp_json(&self) -> String {
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{}\"", escape(v)))
            .collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\":\"{}\",\"passed\":{},\"detail\":\"{}\"}}",
                    escape(&c.name),
                    c.passed,
                    escape(&c.detail)
                )
            })
            .collect();
        format!(
            "{{\"stamp\":{{{}}},\"checks\":[{}]}}",
            notes.join(","),
            checks.join(",")
        )
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(table: &[(&'static str, &str)]) -> Report {
        let mut r = Report {
            rounds_attempted: 10,
            ..Report::default()
        };
        for (i, (name, _)) in table.iter().enumerate() {
            r.metric(name, 1.5 + i as f64);
        }
        r
    }

    #[test]
    fn every_listed_name_is_valid_and_unique() {
        for table in [&END_TO_END[..], &PER_LAYER[..]] {
            for (i, (name, unit)) in table.iter().enumerate() {
                assert!(valid_name(name), "{name}");
                assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
                assert!(name.len() <= 64);
                assert!(table[..i].iter().all(|(n, _)| n != name), "dup {name}");
            }
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(""));
        assert!(!valid_name("a/b"));
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut r = full(&END_TO_END);
        r.check("ok", true, "");
        let line = r.result_json(&END_TO_END).expect("complete report");
        assert!(line.starts_with("{\"correct\":true,\"attempted\":11,\"failed\":0,"));
        assert!(line.contains("\"samples_per_s\":{\"value\":1.5,\"unit\":\"samples/s\"}"));
        assert!(line.contains("\"setup_s\":{\"value\":4.5,\"unit\":\"s\"}"));
        assert!(line.contains("\"decided_file_ratio\":{\"value\":10.5,\"unit\":\"fraction\"}"));
    }

    #[test]
    fn incomplete_or_malformed_reports_are_refused() {
        let mut r = full(&END_TO_END[..9]);
        assert_eq!(
            r.result_json(&END_TO_END).unwrap_err(),
            vec!["missing metric decided_file_ratio".to_string()]
        );
        r.metric("decided_file_ratio", f64::NAN);
        r.metric("not listed", 1.0);
        let problems = r.result_json(&END_TO_END).unwrap_err();
        assert!(problems.iter().any(|p| p.contains("not finite")));
        assert!(problems
            .iter()
            .any(|p| p.contains("unlisted metric not listed")));
        assert!(problems.iter().any(|p| p.contains("malformed")));
        let mut dup = full(&END_TO_END);
        dup.metric("setup_s", 2.0);
        assert_eq!(
            dup.result_json(&END_TO_END).unwrap_err(),
            vec!["duplicate metric setup_s".to_string()]
        );
    }

    #[test]
    fn failed_checks_count_as_failed_operations() {
        let mut r = full(&PER_LAYER);
        r.check("a", true, "");
        r.check("b", false, "it \"broke\"");
        r.rounds_failed = 3;
        assert_eq!((r.attempted(), r.failed()), (12, 4));
        let line = r.result_json(&PER_LAYER).unwrap();
        assert!(line.starts_with("{\"correct\":false,\"attempted\":12,\"failed\":4,"));
        assert!(r.stamp_json().contains("it \\\"broke\\\""));
    }

    #[test]
    fn integers_print_as_json_floats() {
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(0.1234567891), "0.1234567891");
        assert_eq!(json_number(2.5e-7), "0.00000025");
    }

    /// The tables here and `BENCHMARK.json` at the repository root name
    /// the same metrics with the same units.
    #[test]
    fn benchmark_json_lists_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // packaged without the repository root
        };
        let compact: String = text.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
