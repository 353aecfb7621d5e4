//! Results: named metrics with units, the human table, and the one-line
//! JSON object that ends standard output.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// The metric's unit in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Samples submitted, over every phase of the run.
    pub attempted: u64,
    /// Samples that were not judged or disagreed with the synchronous
    /// replay (plus relabel picks only one side made), capped at
    /// `attempted` by [`crate::workloads::run`].
    pub failed: u64,
    /// Other correctness violations (a restored snapshot judging
    /// differently, a stage replay disagreeing with the detector).
    pub violations: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Whether every sample matched the reference and no other check
    /// failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty() && self.attempted > 0
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The human-readable report: notes, then one line per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
        for violation in &self.violations {
            out.push_str(&format!("CHECK FAILED: {violation}\n"));
        }
        let failed_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        out.push_str(&format!(
            "attempted {}  failed {}  failed_ratio {failed_ratio}\n",
            self.attempted, self.failed
        ));
        for m in &self.metrics {
            out.push_str(&format!("{:<36} {:>18.6} {}\n", m.name, m.value, m.unit));
        }
        out
    }

    /// The result as one JSON line: `correct`, `attempted`, `failed` and
    /// every metric with its value and unit.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
