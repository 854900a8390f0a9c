//! Runs every workload of `BENCHMARK.json` in smoke mode (reduced inputs,
//! a two-second window, every oracle check on), untraced and traced, and
//! checks that each prints a valid, correct result line carrying exactly
//! the metrics `BENCHMARK.json` lists.

use std::process::Command;

const SPEC: &str = include_str!("../../BENCHMARK.json");

/// The `name` of every entry of the `section` array in `BENCHMARK.json`.
fn names(section: &str) -> Vec<String> {
    let start = SPEC
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &SPEC[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
        .collect()
}

fn run(workload: &str, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_c4-perf"))
        .args(["run", "--smoke", "--workload", workload, "--seed", "7"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("c4-perf starts");
    assert!(out.status.success(), "{workload}: exit {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_reports_every_metric_correctly() {
    let end_to_end = names("end_to_end");
    let per_layer = names("per_layer");
    assert!(end_to_end.contains(&"setup_s".to_string()));
    for workload in names("workloads") {
        for trace in [false, true] {
            let line = run(&workload, trace);
            c4_obs::json::validate(&line).unwrap_or_else(|e| panic!("{workload}: {e}: {line}"));
            assert!(
                line.starts_with("{\"correct\": true, "),
                "{workload} trace={trace}: {line}"
            );
            let listed = if trace { &per_layer } else { &end_to_end };
            for m in listed {
                assert!(
                    line.contains(&format!("\"{m}\": {{\"value\": ")),
                    "{workload}: no {m}"
                );
            }
            assert_eq!(
                line.matches("\"value\"").count(),
                listed.len(),
                "{workload}: extra metrics"
            );
            if trace {
                assert!(
                    line.contains("\"obs.dropped_events\": {\"value\": 0,"),
                    "{workload}: {line}"
                );
            }
        }
    }
}

#[test]
fn unknown_arguments_are_rejected_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_c4-perf"))
        .args(["run", "--workload", "no-such-workload"])
        .output()
        .expect("c4-perf starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
