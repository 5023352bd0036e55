//! Metric values and the benchmark's printed result.

use crate::stats::Tally;
use std::fmt::Write as _;

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How the value was obtained: statistic and sample count.
    pub basis: String,
}

/// Shorthand constructor.
pub fn metric(
    name: &'static str,
    value: f64,
    unit: &'static str,
    basis: impl Into<String>,
) -> Metric {
    Metric { name, value, unit, basis: basis.into() }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
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
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    // JSON has no NaN or infinity; a non-finite metric is a benchmark bug
    // and reads as null so the result is refused rather than misread.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A JSON object of string values, for the provenance line.
pub fn json_object(pairs: &[(&str, String)]) -> String {
    let body: Vec<String> =
        pairs.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
    format!("{{{}}}", body.join(", "))
}

/// Print every metric by name with its unit and basis, then the result
/// object as the last line of standard output.
pub fn print_result(workload: &str, tally: &Tally, metrics: &[Metric]) {
    for m in metrics {
        println!("metric {workload} {:<36} {:>16.6} {:<6} ({})", m.name, m.value, m.unit, m.basis);
    }
    println!(
        "metric {workload} {:<36} {:>16.6} {:<6} ({} failed of {} attempted)",
        "failed_frac",
        tally.failed_frac(),
        "1",
        tally.failed,
        tally.attempted
    );
    for f in &tally.check_failures {
        println!("check failed: {f}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct(),
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}
