//! Shared helpers for the benchmark harness binaries.

use c4::AnalysisFeatures;
use c4_suite::{BenchOutcome, Benchmark};

/// Analyzes one benchmark with the given features.
pub fn run_one(b: &Benchmark, features: &AnalysisFeatures) -> BenchOutcome {
    c4_suite::analyze(b, features)
}

/// Formats a duration in seconds with one decimal, Table 1 style.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.1}", d.as_secs_f64())
}

/// This process's peak resident set size in kB (`VmHWM` in
/// `/proc/self/status`), where the platform reports one.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The Section 9.3 feature subsets: all 16 combinations of
/// (commutativity, absorption, constraints, control-flow).
pub fn feature_subsets() -> Vec<(String, AnalysisFeatures)> {
    let mut out = Vec::new();
    for bits in 0..16u32 {
        let commutativity = bits & 1 != 0;
        let absorption = bits & 2 != 0;
        let constraints = bits & 4 != 0;
        let control_flow = bits & 8 != 0;
        let mut label = String::new();
        for (on, c) in [
            (commutativity, 'C'),
            (absorption, 'A'),
            (constraints, 'E'),
            (control_flow, 'F'),
        ] {
            label.push(if on { c } else { '-' });
        }
        out.push((
            label,
            AnalysisFeatures {
                commutativity,
                absorption,
                constraints,
                control_flow,
                ..AnalysisFeatures::default()
            },
        ));
    }
    out
}
