//! What one run reports: operation accounting per kind, named metrics
//! with units, and the correctness verdict, printed as readable lines
//! followed by the one-line JSON result.

use std::collections::BTreeMap;

/// Attempted and failed counts for one operation kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCount {
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed (error, timeout, wrong status or a body
    /// that did not check out). A failed operation counts as missing
    /// every latency figure.
    pub failed: u64,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    ops: BTreeMap<&'static str, OpCount>,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<(String, f64, &'static str)>,
    errors: Vec<String>,
}

impl Report {
    /// Counts one operation of `kind`.
    pub fn op(&mut self, kind: &'static str, ok: bool) {
        let c = self.ops.entry(kind).or_default();
        c.attempted += 1;
        if !ok {
            c.failed += 1;
        }
    }

    /// Adds whole counts for `kind`.
    pub fn ops(&mut self, kind: &'static str, count: OpCount) {
        let c = self.ops.entry(kind).or_default();
        c.attempted += count.attempted;
        c.failed += count.failed;
    }

    /// Records a metric that goes into the JSON result.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Records a figure printed for readers but kept out of the JSON
    /// result (layer figures only one backend can measure, the traced
    /// run's own end-to-end numbers).
    pub fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.notes.push((name.to_owned(), value, unit));
    }

    /// Records a correctness failure: the run's verdict becomes
    /// `correct: false`.
    pub fn error(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        // A broken run can repeat one complaint thousands of times;
        // the first few say what went wrong.
        if self.errors.len() < 20 {
            eprintln!("perfbench: check failed: {msg}");
        }
        self.errors.push(msg);
    }

    /// Whether every check passed so far.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Prints the readable lines and then the JSON result as the last
    /// line of standard output.
    pub fn print(&self) {
        for (kind, c) in &self.ops {
            println!("ops {kind}: attempted {} failed {}", c.attempted, c.failed);
        }
        for (name, value, unit) in &self.metrics {
            println!("metric {name} = {value} {unit}");
        }
        for (name, value, unit) in &self.notes {
            println!("layer {name} = {value} {unit}");
        }
        println!("{}", self.json());
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let attempted: u64 = self.ops.values().map(|c| c.attempted).sum();
        let failed: u64 = self.ops.values().map(|c| c.failed).sum();
        let mut correct = self.correct() && attempted > 0;
        let mut metrics = Vec::new();
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                correct = false;
                eprintln!("perfbench: metric {name} is not finite ({value})");
                continue;
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            attempted.max(1),
            metrics.join(", ")
        )
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_the_four_keys_and_counts_failures() {
        let mut r = Report::default();
        r.op("fetch", true);
        r.op("fetch", false);
        r.op("listing", true);
        r.metric("fetch_p50_ms", 1.25, "ms");
        r.metric("setup_s", 2.0, "s");
        let j = r.json();
        assert_eq!(
            j,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"fetch_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn non_finite_metric_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.op("fetch", true);
        r.metric("x", f64::NAN, "ms");
        assert!(r.json().starts_with("{\"correct\": false"));
    }
}
