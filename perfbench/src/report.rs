//! What one benchmark run found: output checks, metrics with their
//! units and sample counts, and the `RunStats` digests, rendered as a
//! readable table followed by the one-line JSON result.

use std::fmt::Write as _;

use diag_pipeline::blob::encode_run_stats;
use diag_pipeline::key::StableHasher;
use diag_sim::RunStats;

/// Failure messages kept for the report (the count is always exact).
const KEPT_FAILURES: usize = 10;

/// One measured figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples the value summarises.
    pub samples: u64,
}

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations (simulations, requests, comparisons).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Reported metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Free-form `label: value` lines (digests, sample notes).
    pub notes: Vec<String>,
    /// When set, the JSON result holds only these metrics, in this
    /// order; the table still shows every metric.
    pub json_only: Option<Vec<&'static str>>,
}

impl Outcome {
    /// Counts one checked operation, failed when `check` is an error.
    pub fn check(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = check {
            self.fail(message);
        }
    }

    /// Counts one failure against an operation already attempted.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(message);
        }
    }

    /// Folds in the checks another thread made.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = KEPT_FAILURES.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
        self.metrics.extend(other.metrics);
        self.notes.extend(other.notes);
    }

    /// Records a metric; non-finite values are reported as failures
    /// instead (a metric must be a number).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        if value.is_finite() {
            self.metrics.push(Metric {
                name: name.to_string(),
                value,
                unit,
                samples,
            });
        } else {
            self.fail(format!("metric {name} is not finite ({value})"));
        }
    }

    /// Records a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Failed share of attempted operations.
    pub fn fail_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The readable report: one line per metric with unit and sample
    /// count, the notes, and any failures.
    pub fn render_table(&self, workload: &str) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{workload}: {:<34} {:>14.6} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let _ = writeln!(
            out,
            "{workload}: {:<34} {:>14.6} {:<6} n={}",
            "fail_share",
            self.fail_share(),
            "ratio",
            self.attempted
        );
        for note in &self.notes {
            let _ = writeln!(out, "{workload}: {note}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "{workload}: FAILED: {f}");
        }
        out
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        let listed = |m: &&Metric| {
            self.json_only
                .as_ref()
                .is_none_or(|names| names.contains(&m.name.as_str()))
        };
        let mut kept: Vec<&Metric> = self.metrics.iter().filter(listed).collect();
        if let Some(names) = &self.json_only {
            kept.sort_by_key(|m| names.iter().position(|n| *n == m.name));
        }
        for (i, m) in kept.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A 64-bit digest of a sequence of `RunStats`, over the same byte
/// encoding the run-stage disk cache stores: two builds whose digests
/// match produced byte-identical statistics.
pub fn digest<'a>(stats: impl IntoIterator<Item = &'a RunStats>) -> String {
    let mut h = StableHasher::new();
    for s in stats {
        h.write_bytes(&encode_run_stats(s));
    }
    format!("{:016x}", h.finish())
}

/// Peak resident set of this process in MiB (`VmHWM`), where the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.check(Ok(()));
        o.metric("rps", 1234.5, "1/s", 10);
        o.metric("setup_s", 0.25, "s", 3);
        assert_eq!(
            o.to_json(),
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\
             \"rps\":{\"value\":1234.5,\"unit\":\"1/s\"},\
             \"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
        assert!(o.render_table("w").contains("n=10"));
    }

    #[test]
    fn json_keeps_only_the_listed_metrics_in_list_order() {
        let mut o = Outcome::default();
        o.check(Ok(()));
        o.metric("rps", 1234.5, "1/s", 10);
        o.metric("extra", 7.0, "count", 1);
        o.metric("setup_s", 0.25, "s", 3);
        o.json_only = Some(vec!["setup_s", "rps"]);
        assert_eq!(
            o.to_json(),
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\
             \"setup_s\":{\"value\":0.25,\"unit\":\"s\"},\
             \"rps\":{\"value\":1234.5,\"unit\":\"1/s\"}}}"
        );
        assert!(o.render_table("w").contains("extra"));
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check(Ok(()));
        o.check(Err("wrong".into()));
        o.metric("x", f64::NAN, "s", 1);
        assert!(!o.correct());
        assert_eq!((o.attempted, o.failed), (2, 2));
        assert_eq!(o.fail_share(), 1.0);
        assert!(o.metrics.is_empty());
        assert!(o.to_json().starts_with("{\"correct\":false"));
    }

    #[test]
    fn digest_tracks_every_field() {
        let a = RunStats {
            cycles: 10,
            committed: 5,
            ..RunStats::default()
        };
        let mut b = a;
        assert_eq!(digest([&a]), digest([&b]));
        b.activity.l2_misses = 1;
        assert_ne!(digest([&a]), digest([&b]));
        assert_ne!(digest([&a, &a]), digest([&a]));
    }
}
