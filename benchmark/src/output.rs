//! The result a run prints: named metrics with units, and the one JSON
//! object on the last line of standard output.

use std::fmt::Write as _;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A metric name: starts with a letter or digit, then at most 63 more
/// of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 of letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// What one run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every check passed.
    pub correct: bool,
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that errored, timed out or failed a check.
    pub failed: u64,
    /// The metrics of this run (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`. Values print
    /// with every digit `f64` needs to round-trip.
    ///
    /// # Panics
    ///
    /// Panics on a value that is not finite or a name or unit outside
    /// the allowed characters: either is a bug in the harness, and a
    /// line that is not JSON would hide it.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(valid_name(m.name), "metric name `{}`", m.name);
            assert!(valid_unit(m.unit), "unit `{}` of `{}`", m.unit, m.name);
            assert!(m.value.is_finite(), "metric `{}` is {}", m.name, m.value);
            let sep = if i == 0 { "" } else { ", " };
            write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("write to string");
        }
        s.push_str("}}");
        s
    }

    /// The metrics as an aligned table, one per line, for people.
    pub fn table(&self) -> String {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut s = String::new();
        for m in &self.metrics {
            writeln!(s, "  {:<width$}  {:>18} {}", m.name, m.value, m.unit)
                .expect("write to string");
        }
        s
    }
}
