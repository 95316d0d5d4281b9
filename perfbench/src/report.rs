//! The run's metric table: a human-readable line per metric, then the one
//! JSON object the benchmark contract asks for as the last output line.

use std::fmt::Write as _;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Measurements the value summarises (1 for an exact count).
    pub samples: usize,
}

/// Metrics in report order, plus the run's pass/fail tally.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Record one attempted unit of work (a timed pass or a standalone
    /// correctness check) and whether it failed.
    pub fn attempt(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {e}");
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metric table, one `name value unit (n=samples)` line each.
    pub fn table(&self) -> String {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut s = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "  {:<width$}  {:>16}  {:<6} n={}",
                m.name,
                format_value(m.value),
                m.unit,
                m.samples
            );
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            s,
            "  {:<width$}  {:>16}  {:<6} n={}",
            "failed_frac",
            format_value(frac),
            "1",
            self.attempted
        );
        s
    }

    /// The contract's result object (a single line).
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            // Non-finite values are not JSON; they only arise from a broken
            // run, which `correct` already reports.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                format_value(v),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Every digit of `v`: Rust's shortest round-trip form, with a decimal
/// point so integers still read as numbers.
fn format_value(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E', 'N', 'i']) {
        s
    } else {
        format!("{s}.0")
    }
}
